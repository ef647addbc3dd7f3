package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module whose single package carries a
// nilsafe violation (the one suite analyzer that is not scoped to spectra
// import paths, so it fires in any module).
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":  "module tmpmod\n\ngo 1.23\n",
		"main.go": src,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const violating = `package main

// Handle is nil-callable.
//
//lint:nilsafe
type Handle struct{ n int }

// Inc is missing its guard.
func (h *Handle) Inc() { h.n++ }

func main() {}
`

const suppressed = `package main

// Handle is nil-callable.
//
//lint:nilsafe
type Handle struct{ n int }

// Inc is missing its guard, but the author vouched for it.
//
//lint:allow nilsafe exercising the driver's suppression accounting
func (h *Handle) Inc() { h.n++ }

func main() {}
`

// stale carries a directive for an analyzer the suite does not have: it
// suppresses nothing, so it must not pass silently against the budget.
const stale = `package main

//lint:allow metricname no such analyzer in the suite
const name = "x"

func main() {}
`

const clean = `package main

// Handle is nil-callable.
//
//lint:nilsafe
type Handle struct{ n int }

// Inc carries the guard.
func (h *Handle) Inc() {
	if h == nil {
		return
	}
	h.n++
}

func main() {}
`

func TestFindingFailsTheRun(t *testing.T) {
	dir := writeModule(t, violating)
	var stdout, stderr bytes.Buffer
	code := Main(dir, []string{"./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
	}
	out := stdout.String()
	if !strings.Contains(out, "nilsafe") || !strings.Contains(out, "nil-receiver guard") {
		t.Errorf("finding not printed:\n%s", out)
	}
	if !strings.Contains(out, "1 finding(s)") {
		t.Errorf("summary line missing or wrong:\n%s", out)
	}
}

func TestSuppressionClearsTheRun(t *testing.T) {
	dir := writeModule(t, suppressed)
	var stdout, stderr bytes.Buffer
	code := Main(dir, []string{"./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "1 suppressed") {
		t.Errorf("suppression not counted:\n%s", stdout.String())
	}
}

func TestCleanRun(t *testing.T) {
	dir := writeModule(t, clean)
	var stdout, stderr bytes.Buffer
	if code := Main(dir, []string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
	}
}

func TestStaleDirectiveFailsTheRun(t *testing.T) {
	dir := writeModule(t, stale)
	var stdout, stderr bytes.Buffer
	code := Main(dir, []string{"./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
	}
	out := stdout.String()
	if !strings.Contains(out, `main.go:3:1: spectralint: //lint:allow names "metricname"`) {
		t.Errorf("stale directive not reported at its comment:\n%s", out)
	}
	if !strings.Contains(out, "1 finding(s)") {
		t.Errorf("summary line missing or wrong:\n%s", out)
	}
}

func TestJSONReport(t *testing.T) {
	dir := writeModule(t, violating)
	reportPath := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	code := Main(dir, []string{"-json", reportPath, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, &stderr)
	}
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Packages != 1 || len(rep.Findings) != 1 || rep.Suppressed != 0 {
		t.Fatalf("report = %+v, want 1 package, 1 finding, 0 suppressed", rep)
	}
	f := rep.Findings[0]
	if f.Analyzer != "nilsafe" || f.File != "main.go" || f.Line == 0 {
		t.Errorf("finding = %+v", f)
	}
}

func TestLoadFailure(t *testing.T) {
	dir := t.TempDir() // no go.mod, no packages
	var stdout, stderr bytes.Buffer
	if code := Main(dir, []string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

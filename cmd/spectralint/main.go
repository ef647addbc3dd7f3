// Command spectralint runs Spectra's static-analysis suite — the
// invariants the compiler cannot see: virtual-clock discipline in
// deterministic packages, nil-receiver guards on observability handles,
// no blocking under mutexes, classified errors at the RPC boundary, and
// the interprocedural invariants of the deadline work: context
// propagation on request paths (ctxflow), goroutine termination
// (goroleak), a cycle-free lock order (lockorder), and a coherent metric
// namespace of well-formed, registry-resolved metric and span names
// (spanmetric). The driver keeps one fact store for the whole run and
// visits packages in dependency order, so the interprocedural analyzers
// see across package boundaries.
//
// Usage:
//
//	go run ./cmd/spectralint [-json report.json] [-budget lint-budget.json] [packages...]
//	go run ./cmd/spectralint -suppressions [packages...]
//
// With no packages it lints ./.... It prints one line per finding
// (file:line:col: analyzer: message), honors //lint:allow suppressions,
// and exits 1 if any finding survives, 2 on a load failure — so CI can
// gate on it. A //lint:allow directive naming an analyzer that is not in
// the suite is itself a finding, reported under the name spectralint.
// -json additionally writes a machine-readable report for artifact
// upload.
//
// -suppressions inventories the suppression debt instead of linting: one
// line per //lint:allow directive (file:line: analyzers: reason). -budget
// ratchets that debt: the run fails if the directive count exceeds the
// checked-in budget file's allowance, so new suppressions must either
// displace old ones or raise the budget in a reviewed commit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"spectra/internal/lint"
	"spectra/internal/lint/analysis"
	"spectra/internal/lint/load"
)

func main() {
	os.Exit(Main(".", os.Args[1:], os.Stdout, os.Stderr))
}

// finding is one surviving diagnostic, in report form.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// report is the -json output document.
type report struct {
	// Packages is how many packages were analyzed.
	Packages int `json:"packages"`
	// Findings are the surviving diagnostics, in file order.
	Findings []finding `json:"findings"`
	// Suppressed counts diagnostics silenced by //lint:allow directives.
	Suppressed int `json:"suppressed"`
	// Directives counts //lint:allow directives present in the analyzed
	// packages — the suppression debt the -budget ratchet bounds.
	Directives int `json:"directives"`
}

// budget is the checked-in lint-budget.json document.
type budget struct {
	// Suppressions is the maximum allowed //lint:allow directive count.
	Suppressions int `json:"suppressions"`
}

// Main is the testable entry point: it lints the given patterns relative
// to dir and returns the process exit code.
func Main(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spectralint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonPath := fs.String("json", "", "write a JSON report to this `file`")
	budgetPath := fs.String("budget", "", "enforce the suppression budget in this `file`")
	listSup := fs.Bool("suppressions", false, "list //lint:allow directives instead of linting")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := load.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "spectralint: %v\n", err)
		return 2
	}

	var directives []analysis.Directive
	for _, pkg := range prog.Roots {
		directives = append(directives, analysis.ListDirectives(prog.Fset, pkg.Files)...)
	}
	sort.Slice(directives, func(i, j int) bool {
		if directives[i].File != directives[j].File {
			return directives[i].File < directives[j].File
		}
		return directives[i].Line < directives[j].Line
	})

	if *listSup {
		for _, d := range directives {
			reason := d.Reason
			if reason == "" {
				reason = "(no justification)"
			}
			fmt.Fprintf(stdout, "%s:%d: %s: %s\n",
				relPath(dir, d.File), d.Line, strings.Join(d.Analyzers, ","), reason)
		}
		fmt.Fprintf(stdout, "spectralint: %d suppression directive(s) in %d package(s)\n",
			len(directives), len(prog.Roots))
		return 0
	}

	rep := report{Packages: len(prog.Roots), Directives: len(directives)}
	suite := lint.Suite()
	// A directive naming no analyzer in the suite suppresses nothing but
	// still counts against the budget: report it as a finding.
	known := make(map[string]bool, len(suite))
	for _, a := range suite {
		known[a.Name] = true
	}
	for _, d := range directives {
		for _, name := range d.Analyzers {
			if !known[name] {
				rep.Findings = append(rep.Findings, finding{
					File:     relPath(dir, d.File),
					Line:     d.Line,
					Col:      d.Col,
					Analyzer: "spectralint",
					Message: fmt.Sprintf("//lint:allow names %q, which is not an analyzer in the suite; "+
						"the directive suppresses nothing, so delete it or name a current analyzer", name),
				})
			}
		}
	}
	// One fact store for the run: dependency order guarantees a package's
	// facts are exported before any importer is analyzed.
	facts := analysis.NewFactStore()
	for _, pkg := range prog.Roots {
		sup := analysis.CollectSuppressions(prog.Fset, pkg.Files)
		for _, a := range suite {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      prog.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Facts:     facts,
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(stderr, "spectralint: %s on %s: %v\n", a.Name, pkg.ImportPath, err)
				return 2
			}
			for _, d := range pass.Diagnostics() {
				pos := prog.Fset.Position(d.Pos)
				if sup.Allows(a.Name, pos) {
					rep.Suppressed++
					continue
				}
				rep.Findings = append(rep.Findings, finding{
					File:     relPath(dir, pos.Filename),
					Line:     pos.Line,
					Col:      pos.Column,
					Analyzer: a.Name,
					Message:  d.Message,
				})
			}
		}
	}

	sort.Slice(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i], rep.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	for _, f := range rep.Findings {
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
	fmt.Fprintf(stdout, "spectralint: %d package(s), %d finding(s), %d suppressed\n",
		rep.Packages, len(rep.Findings), rep.Suppressed)

	if *jsonPath != "" {
		if err := writeReport(*jsonPath, rep); err != nil {
			fmt.Fprintf(stderr, "spectralint: %v\n", err)
			return 2
		}
	}
	overBudget := false
	if *budgetPath != "" {
		allowed, err := readBudget(*budgetPath)
		if err != nil {
			fmt.Fprintf(stderr, "spectralint: %v\n", err)
			return 2
		}
		switch {
		case len(directives) > allowed:
			fmt.Fprintf(stderr,
				"spectralint: suppression budget exceeded: %d //lint:allow directive(s), budget allows %d; remove a suppression or raise the budget in %s in a reviewed commit\n",
				len(directives), allowed, *budgetPath)
			overBudget = true
		case len(directives) < allowed:
			fmt.Fprintf(stdout,
				"spectralint: suppression debt is %d, below the budget of %d; consider lowering %s to lock in the improvement\n",
				len(directives), allowed, *budgetPath)
		}
	}
	if len(rep.Findings) > 0 || overBudget {
		return 1
	}
	return 0
}

// readBudget parses the suppression-budget document.
func readBudget(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var b budget
	if err := json.Unmarshal(data, &b); err != nil {
		return 0, fmt.Errorf("parsing %s: %w", path, err)
	}
	return b.Suppressions, nil
}

// relPath shortens filename relative to dir when possible, for stable,
// readable report paths.
func relPath(dir, filename string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return filename
	}
	rel, err := filepath.Rel(abs, filename)
	if err != nil || rel == "" || rel[0] == '.' && len(rel) > 1 && rel[1] == '.' {
		return filename
	}
	return rel
}

// writeReport writes the JSON report document.
func writeReport(path string, rep report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

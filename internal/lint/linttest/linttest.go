// Package linttest runs an analyzer over golden packages and checks its
// findings against expectations embedded in the sources — a minimal
// analogue of golang.org/x/tools/go/analysis/analysistest.
//
// A golden file marks each line where a diagnostic is expected with a
// trailing comment of the form
//
//	// want `regexp` `another regexp`
//
// (double-quoted Go strings also work). The runner requires exactly one
// matching diagnostic per pattern on that line and zero diagnostics on
// unmarked lines. //lint:allow directives are honored exactly as the
// spectralint driver honors them, so golden packages can exercise the
// suppression path: a suppressed violation line carries no want comment.
package linttest

import (
	"fmt"
	"go/ast"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"spectra/internal/lint/analysis"
	"spectra/internal/lint/load"
)

// wantRE extracts the expectation patterns from a want comment: Go string
// literals (quoted or backquoted) following the word "want".
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Run loads patterns (relative to the test's working directory, e.g.
// "./testdata/src/det") and checks the analyzer's diagnostics against the
// // want expectations in the loaded sources. Multiple patterns load in
// one program, dependencies first, so cross-package analyzers (lockorder,
// spanmetric) see a dependency before its importers.
func Run(t *testing.T, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	prog, err := load.Load(".", patterns...)
	if err != nil {
		t.Fatalf("loading %v: %v", patterns, err)
	}
	if len(prog.Roots) == 0 {
		t.Fatalf("no packages matched %v", patterns)
	}

	type lineKey struct {
		file string
		line int
	}
	got := make(map[lineKey][]string)
	want := make(map[lineKey][]string)

	// One fact store per Run, exactly as the driver keeps one per
	// invocation: dependency-ordered packages export facts their
	// dependents import.
	facts := analysis.NewFactStore()
	for _, pkg := range prog.Roots {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      prog.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Facts:     facts,
		}
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, pkg.ImportPath, err)
		}
		sup := analysis.CollectSuppressions(prog.Fset, pkg.Files)
		for _, d := range pass.Diagnostics() {
			pos := prog.Fset.Position(d.Pos)
			if sup.Allows(a.Name, pos) {
				continue
			}
			k := lineKey{pos.Filename, pos.Line}
			got[k] = append(got[k], d.Message)
		}
		for _, f := range pkg.Files {
			collectWants(prog, f, func(file string, line int, patterns []string) {
				k := lineKey{file, line}
				want[k] = append(want[k], patterns...)
			})
		}
	}

	keys := make(map[lineKey]bool)
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	sorted := make([]lineKey, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].file != sorted[j].file {
			return sorted[i].file < sorted[j].file
		}
		return sorted[i].line < sorted[j].line
	})

	for _, k := range sorted {
		matchLine(t, k.file, k.line, want[k], got[k])
	}
}

// collectWants scans a file's comments for want expectations.
func collectWants(prog *load.Program, f *ast.File, emit func(file string, line int, patterns []string)) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			body, ok := strings.CutPrefix(c.Text, "// want ")
			if !ok {
				continue
			}
			var patterns []string
			for _, lit := range wantRE.FindAllString(body, -1) {
				if strings.HasPrefix(lit, "`") {
					patterns = append(patterns, strings.Trim(lit, "`"))
					continue
				}
				s, err := strconv.Unquote(lit)
				if err == nil {
					patterns = append(patterns, s)
				}
			}
			if len(patterns) > 0 {
				pos := prog.Fset.Position(c.Pos())
				emit(pos.Filename, pos.Line, patterns)
			}
		}
	}
}

// matchLine pairs each want pattern on one line with a distinct diagnostic.
func matchLine(t *testing.T, file string, line int, wants, gots []string) {
	t.Helper()
	loc := fmt.Sprintf("%s:%d", file, line)
	remaining := append([]string(nil), gots...)
	for _, w := range wants {
		re, err := regexp.Compile(w)
		if err != nil {
			t.Errorf("%s: bad want pattern %q: %v", loc, w, err)
			continue
		}
		idx := -1
		for i, g := range remaining {
			if re.MatchString(g) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Errorf("%s: no diagnostic matching %q (got %q)", loc, w, remaining)
			continue
		}
		remaining = append(remaining[:idx], remaining[idx+1:]...)
	}
	for _, g := range remaining {
		t.Errorf("%s: unexpected diagnostic: %s", loc, g)
	}
}

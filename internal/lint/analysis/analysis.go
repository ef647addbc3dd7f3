// Package analysis is a small, dependency-free analogue of the
// golang.org/x/tools/go/analysis framework: an Analyzer inspects one
// type-checked package at a time and reports Diagnostics. Spectra vendors
// this minimal core instead of depending on x/tools so the lint suite
// builds with nothing beyond the standard library.
//
// The model is deliberately a subset: no requires-graph, no SSA. Facts —
// data an analyzer exports about a package or object for later passes over
// dependent packages to import — are supported through FactStore, riding
// the driver's deps-before-dependents ordering; see facts.go. An analyzer
// may also keep cross-package state inside its closure (lockorder's edge
// graph), which rides the same ordering.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check. Name doubles as the suppression key for
// //lint:allow comments.
type Analyzer struct {
	// Name identifies the analyzer in reports and in //lint:allow
	// directives. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects one package through pass and reports findings via
	// pass.Reportf. It is called once per package, in dependency order.
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions to file locations, shared program-wide.
	Fset *token.FileSet
	// Files is the package's parsed syntax (non-test files only).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds use/def/selection/type resolution for Files.
	TypesInfo *types.Info
	// Facts is the run-wide fact store shared by every pass, enabling
	// cross-package analyses: the driver's deps-before-dependents order
	// guarantees a package's facts are exported before any importer is
	// analyzed. Nil disables facts (analyzers degrade to package scope).
	Facts *FactStore

	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Analyzer names the reporting check.
	Analyzer string
	// Message describes the violation and, ideally, the fix.
	Message string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings reported so far, sorted by position.
func (p *Pass) Diagnostics() []Diagnostic {
	out := append([]Diagnostic(nil), p.diags...)
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// FuncFor resolves a call or selector expression to the *types.Func it
// invokes, or nil. It sees through method values and promoted (embedded)
// methods via the selection table, so (*sync.Mutex).Lock is recognized even
// when called on a struct that embeds the mutex.
func (p *Pass) FuncFor(e ast.Expr) *types.Func {
	switch e := e.(type) {
	case *ast.CallExpr:
		return p.FuncFor(e.Fun)
	case *ast.ParenExpr:
		return p.FuncFor(e.X)
	case *ast.IndexExpr:
		// Explicit generic instantiation with one type argument,
		// f[T](...). A value index (m[k]) resolves X to a non-func
		// object and falls out nil below.
		return p.FuncFor(e.X)
	case *ast.IndexListExpr:
		// Explicit generic instantiation with several type arguments.
		return p.FuncFor(e.X)
	case *ast.SelectorExpr:
		if sel, ok := p.TypesInfo.Selections[e]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := p.TypesInfo.Uses[e.Sel].(*types.Func); ok {
			return f
		}
	case *ast.Ident:
		if f, ok := p.TypesInfo.Uses[e].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// FullName renders f like types.Func.FullName: "time.Now",
// "(*sync.Mutex).Lock". A nil f yields "".
func FullName(f *types.Func) string {
	if f == nil {
		return ""
	}
	return f.FullName()
}

// Package spanmetric keeps Spectra's metric namespace coherent and pins
// every emitted metric name and span kind to a constant declared in the
// observability registry package, program-wide — the drift class where a
// dashboard queries spectra.rpc.retries.total forever while the code
// quietly emits a renamed or misspelled string.
//
// The format rule holds in every package, the registry included:
//
//  0. Any string literal shaped like a metric name ("spectra." + name
//     characters) must match the dotted-lowercase convention
//     spectra.<seg>.<seg>... (segments of [a-z0-9_]; a trailing dot marks
//     a name prefix such as obs.RelErrPrefix). A malformed literal is
//     reported once, by this rule, and not again as undeclared.
//
// The declaration rules resolve names against the registry package's
// **types scope**, located through the current package's transitive
// imports. Export data carries constant values, so the declared-name set
// is available to every importer no matter how the analysis was rooted —
// this is what makes the check truly cross-package. They apply outside
// the registry package, wherever it is reachable:
//
//  1. The metric-name argument of Registry.Counter / Gauge / Histogram,
//     when constant, must equal a declared registry constant or extend a
//     declared prefix (a registry constant ending in ".").
//  2. The kind argument of SpanRecorder.Start, when constant, must equal
//     the value of a registry constant named Span*.
//  3. Any other in-place string literal shaped like a metric name must be
//     declared, extend a declared prefix, or appear in the Exempt list
//     (service names such as "spectra.work" share the prefix but are not
//     metrics).
//
// Non-constant arguments (prefix + variable) are unverifiable here and are
// skipped; the format rule still covers their constant parts.
package spanmetric

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"spectra/internal/lint/analysis"
)

// Config tunes the analyzer.
type Config struct {
	// RegistryPkg is the import path whose scope declares the metric-name
	// constants ("spectra."-valued) and span kinds (Span*-named).
	RegistryPkg string
	// Exempt lists exact strings allowed without declaration — service
	// names that share the spectra. prefix without being metrics.
	Exempt []string
}

// nameShaped matches literals plausibly intended as metric names;
// prose with spaces or punctuation is left alone.
var nameShaped = regexp.MustCompile(`^spectra\.[A-Za-z0-9_.]+$`)

// namePattern is the dotted-lowercase convention; an optional trailing
// dot marks a prefix constant.
var namePattern = regexp.MustCompile(`^spectra(\.[a-z0-9_]+)+\.?$`)

// malformed reports whether name is metric-shaped but breaks the format
// rule.
func malformed(name string) bool {
	return nameShaped.MatchString(name) && !namePattern.MatchString(name)
}

// registry is the harvested declaration set of the registry package.
type registry struct {
	// names are declared metric names (exact).
	names map[string]bool
	// prefixes are declared name prefixes (value ends in ".").
	prefixes []string
	// spanKinds maps each Span* constant's value to its constant name.
	spanKinds map[string]string
}

// New returns the analyzer.
func New(cfg Config) *analysis.Analyzer {
	exempt := make(map[string]bool)
	for _, s := range cfg.Exempt {
		exempt[s] = true
	}
	registerFuncs := map[string]bool{
		"(*" + cfg.RegistryPkg + ".Registry).Counter":   true,
		"(*" + cfg.RegistryPkg + ".Registry).Gauge":     true,
		"(*" + cfg.RegistryPkg + ".Registry).Histogram": true,
	}
	startFunc := "(*" + cfg.RegistryPkg + ".SpanRecorder).Start"
	// One harvest per registry *types.Package, cached across passes.
	cache := map[*types.Package]*registry{}
	return &analysis.Analyzer{
		Name: "spanmetric",
		Doc: "metric name literals must follow the spectra.-prefixed " +
			"dotted-lowercase convention, and emitted metric names and span " +
			"kinds must resolve to constants declared in the observability " +
			"registry package, so dashboards and trace tooling survive " +
			"renames; declare the name there or annotate //lint:allow spanmetric",
		Run: func(pass *analysis.Pass) error {
			// reg stays nil where the declaration rules do not apply: in
			// the registry itself and where it is not reachable.
			var reg *registry
			if pass.Pkg.Path() != cfg.RegistryPkg {
				if regPkg := findImport(pass.Pkg, cfg.RegistryPkg); regPkg != nil {
					reg = cache[regPkg]
					if reg == nil {
						reg = harvest(regPkg)
						cache[regPkg] = reg
					}
				}
			}
			for _, file := range pass.Files {
				checkFile(pass, file, reg, registerFuncs, startFunc, exempt)
			}
			return nil
		},
	}
}

// findImport locates the registry package in the transitive imports.
func findImport(pkg *types.Package, path string) *types.Package {
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package) *types.Package
	walk = func(p *types.Package) *types.Package {
		if seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == path {
			return p
		}
		for _, imp := range p.Imports() {
			if found := walk(imp); found != nil {
				return found
			}
		}
		return nil
	}
	return walk(pkg)
}

// harvest reads the registry package's scope: string constants valued
// "spectra.*" declare metric names (trailing "." marks a prefix), and
// string constants *named* Span* declare span kinds.
func harvest(pkg *types.Package) *registry {
	reg := &registry{names: map[string]bool{}, spanKinds: map[string]string{}}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.String {
			continue
		}
		val := constant.StringVal(c.Val())
		if strings.HasPrefix(val, "spectra.") {
			if strings.HasSuffix(val, ".") {
				reg.prefixes = append(reg.prefixes, val)
			} else {
				reg.names[val] = true
			}
		}
		if strings.HasPrefix(name, "Span") {
			reg.spanKinds[val] = name
		}
	}
	return reg
}

// checkFile applies the rules to one file; reg is nil when only the
// format rule applies.
func checkFile(pass *analysis.Pass, file *ast.File, reg *registry, registerFuncs map[string]bool, startFunc string, exempt map[string]bool) {
	// Arguments checked at call sites are excluded from rule 3 so one bad
	// name reports once.
	checkedArgs := map[token.Pos]bool{}
	if reg != nil {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			full := analysis.FullName(pass.FuncFor(call.Fun))
			switch {
			case registerFuncs[full]:
				arg := call.Args[0]
				checkedArgs[arg.Pos()] = true
				// A malformed literal argument is the format rule's finding.
				_, isLit := arg.(*ast.BasicLit)
				if name, ok := constString(pass, arg); ok && !(isLit && malformed(name)) && !declared(reg, name) && !exempt[name] {
					pass.Reportf(arg.Pos(),
						"metric name %q is not declared in the registry package; register it as a named constant there so dashboards track renames", name)
				}
			case full == startFunc:
				checkedArgs[call.Args[0].Pos()] = true
				if kind, ok := constString(pass, call.Args[0]); ok {
					if _, known := reg.spanKinds[kind]; !known {
						pass.Reportf(call.Args[0].Pos(),
							"span kind %q does not match any Span* constant in the registry package; use a declared kind so trace tooling recognizes the span", kind)
					}
				}
			}
			return true
		})
	}
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, ok := constString(pass, lit)
		if !ok || !nameShaped.MatchString(name) {
			return true
		}
		switch {
		case !namePattern.MatchString(name):
			pass.Reportf(lit.Pos(),
				"metric name %q violates the spectra.-prefixed dotted-lowercase convention (segments of [a-z0-9_])", name)
		case reg != nil && !checkedArgs[lit.Pos()] && !declared(reg, name) && !exempt[name]:
			pass.Reportf(lit.Pos(),
				"string %q looks like a metric name but is not declared in the registry package; use the declared constant, declare it, or exempt it as a service name", name)
		}
		return true
	})
}

// declared reports whether name is a registry constant or extends a
// declared prefix.
func declared(reg *registry, name string) bool {
	if reg.names[name] {
		return true
	}
	for _, p := range reg.prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// constString evaluates e as a constant string.
func constString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

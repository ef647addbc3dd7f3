// Package ctxflow enforces deadline propagation on Spectra's request
// paths: the tail-latency guarantees of the deadline/hedging/multiplexing
// work hold only if every remote exchange runs inside the operation's
// budget, and a single context.Background() anywhere on the path silently
// detaches everything downstream of it from that budget — failover rungs
// and parallel branches then run unbounded, exactly the escapes this
// analyzer was built to catch.
//
// The analysis is interprocedural. A function "reaches the network" when
// one of the configured sink calls (the RPC exchange primitives, by
// types.Func.FullName — concrete methods and the runtime interfaces both)
// is reachable from it through the package call graph; reachability
// crosses package boundaries via object facts exported in dependency
// order. Within the configured request-path packages, two rules apply to
// every network-reaching function:
//
//  1. No fresh roots: calls to context.Background / context.TODO are
//     forbidden. A sanctioned budget root (the one place an operation's
//     latency budget becomes a context) is annotated //lint:allow ctxflow;
//     compatibility wrappers whose contract is exactly "the no-context
//     variant" are listed in Config.Facade.
//  2. No variant downgrades: a function that receives a context.Context
//     must not call a sink's no-context variant (Config.Variants names the
//     Context-taking sibling) — dropping the caller's context at the last
//     hop unbounds the exchange just as surely as a fresh root.
//
// Soundness limits: calls through function values produce no edge, and
// interface calls resolve to the interface method (name the interface
// methods as sinks, as the default Spectra configuration does). A helper
// that wraps context.Background and is called from a request path is not
// flagged (the helper itself does not reach a sink) — that is deliberate:
// it forces fresh roots out of request functions into named, reviewable
// root helpers.
package ctxflow

import (
	"go/ast"
	"go/types"

	"spectra/internal/lint/analysis"
	"spectra/internal/lint/callgraph"
)

// Config tunes the analyzer.
type Config struct {
	// RequestPkgs are the import paths whose functions are subject to the
	// rules. Facts are exported from every package regardless, so
	// reachability flows through intermediate packages.
	RequestPkgs []string
	// Sinks are the RPC exchange primitives (types.Func.FullName form):
	// concrete client/pool methods and the runtime interface methods that
	// dispatch to them.
	Sinks []string
	// Variants maps a no-context sink variant (FullName) to the name of
	// its Context-taking sibling, for rule 2's diagnostic.
	Variants map[string]string
	// Facade lists functions (FullName) exempt from both rules: the
	// compatibility wrappers whose documented contract is the no-context
	// call path.
	Facade []string
}

// reachesFact marks a function from which a configured sink is reachable;
// Sink records one witness for diagnostics.
type reachesFact struct {
	Sink string
}

// rootFuncs are the forbidden fresh-context constructors.
var rootFuncs = map[string]bool{
	"context.Background": true,
	"context.TODO":       true,
}

// New returns the analyzer.
func New(cfg Config) *analysis.Analyzer {
	sinks := make(map[string]bool, len(cfg.Sinks))
	for _, s := range cfg.Sinks {
		sinks[s] = true
	}
	facade := make(map[string]bool, len(cfg.Facade))
	for _, f := range cfg.Facade {
		facade[f] = true
	}
	request := make(map[string]bool, len(cfg.RequestPkgs))
	for _, p := range cfg.RequestPkgs {
		request[p] = true
	}
	return &analysis.Analyzer{
		Name: "ctxflow",
		Doc: "request-path functions that reach an RPC sink must not mint " +
			"fresh contexts (context.Background/TODO) or drop a received " +
			"context by calling a no-context call variant; thread the " +
			"caller's ctx so deadlines propagate end to end",
		Run: func(pass *analysis.Pass) error {
			g := callgraph.Build(pass)
			reach := computeReach(pass, g, sinks)

			// Export facts for every network-reaching declared function so
			// dependent packages see through this one.
			for fn, sink := range reach {
				pass.ExportObjectFact(fn, &reachesFact{Sink: sink})
			}

			if !request[pass.Pkg.Path()] {
				return nil
			}
			for _, node := range g.Nodes() {
				sink, onPath := reach[node.Func]
				if !onPath || facade[analysis.FullName(node.Func)] {
					continue
				}
				checkFreshRoots(pass, node, sink)
				checkVariantDowngrade(pass, node, cfg.Variants)
			}
			return nil
		},
	}
}

// computeReach finds which declared functions reach a sink, with one
// witness sink name each, seeded by the sink list and by facts imported
// from dependency packages. Declared sinks seed themselves: their bodies
// are the facade boundary's inside, and rule 1 still applies to them.
func computeReach(pass *analysis.Pass, g *callgraph.Graph, sinks map[string]bool) map[*types.Func]string {
	return g.Closure(func(f *types.Func) (string, bool) {
		if name := analysis.FullName(f); sinks[name] {
			return name, true
		}
		var fact reachesFact
		if pass.ImportObjectFact(f, &fact) {
			return fact.Sink, true
		}
		return "", false
	})
}

// checkFreshRoots reports context.Background/TODO calls anywhere in the
// function body, nested literals included.
func checkFreshRoots(pass *analysis.Pass, node *callgraph.Node, sink string) {
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := analysis.FullName(pass.FuncFor(call.Fun))
		if rootFuncs[name] {
			pass.Reportf(call.Pos(),
				"%s mints a fresh context with %s on a request path that reaches %s; thread the caller's ctx so the operation budget propagates (annotate sanctioned budget roots with //lint:allow ctxflow)",
				node.Func.Name(), name, sink)
		}
		return true
	})
}

// checkVariantDowngrade reports no-context sink-variant calls from
// functions that received a context.
func checkVariantDowngrade(pass *analysis.Pass, node *callgraph.Node, variants map[string]string) {
	if variants == nil || !hasContextParam(node.Func) {
		return
	}
	for _, e := range node.Calls {
		name := analysis.FullName(e.Callee)
		sibling, downgrade := variants[name]
		if !downgrade {
			continue
		}
		pass.Reportf(e.Pos,
			"%s receives a context.Context but calls %s, dropping it at the last hop; call %s with the caller's ctx",
			node.Func.Name(), name, sibling)
	}
}

// hasContextParam reports whether fn's signature takes a context.Context.
func hasContextParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// isContextType recognizes context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

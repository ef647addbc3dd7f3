// Package callgraph builds a static, per-package call graph from a
// type-checked pass, the substrate for Spectra's interprocedural analyzers
// (ctxflow, goroleak, lockorder). Nodes are the package's declared
// functions and methods; edges are the statically resolvable call sites in
// their bodies, including sites inside nested function literals (a literal
// runs with its enclosing function's facts about reachability, so its
// calls are attributed to the enclosing declaration) — except when an
// analyzer inspects literals itself.
//
// Soundness limits, accepted deliberately:
//
//   - Calls through function-typed values (fields, parameters, variables)
//     resolve to nothing and produce no edge.
//   - Calls through interface methods resolve to the *interface* method's
//     types.Func, not its implementations. Analyzers that care name the
//     interface methods explicitly (ctxflow's sink list does).
//   - Reflection and linkname tricks are invisible.
//
// Cross-package edges carry the imported callee's *types.Func; combined
// with object facts exported by earlier passes (the loader checks
// dependencies first), analyzers extend in-package closures across the
// whole program.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"spectra/internal/lint/analysis"
)

// Edge is one statically resolved call site.
type Edge struct {
	// Callee is the invoked function: in-package, imported, or an
	// interface method.
	Callee *types.Func
	// Pos locates the call expression.
	Pos token.Pos
	// InLiteral marks calls occurring inside a function literal nested in
	// the declaring function (they may run on another goroutine or later).
	InLiteral bool
}

// Node is one declared function or method with its outgoing edges.
type Node struct {
	// Func is the declared function's type object.
	Func *types.Func
	// Decl is the declaration's syntax.
	Decl *ast.FuncDecl
	// Calls are the statically resolved call sites in body order.
	Calls []Edge
	// Spawns are the `go` statements in the body whose spawned callee
	// resolved to a named function (spawned literals are analyzed by the
	// interested analyzer directly from syntax).
	Spawns []Edge
}

// Graph is the call graph of one package.
type Graph struct {
	nodes  map[*types.Func]*Node
	sorted []*Node
}

// Build constructs the package's call graph from the pass's syntax and
// type information.
func Build(pass *analysis.Pass) *Graph {
	g := &Graph{nodes: make(map[*types.Func]*Node)}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &Node{Func: fn, Decl: fd}
			collect(pass, fd.Body, false, node)
			g.nodes[fn] = node
			g.sorted = append(g.sorted, node)
		}
	}
	sort.Slice(g.sorted, func(i, j int) bool {
		return g.sorted[i].Decl.Pos() < g.sorted[j].Decl.Pos()
	})
	return g
}

// collect walks a body gathering call and spawn edges. inLit marks that
// the walk has entered a nested function literal.
func collect(pass *analysis.Pass, body ast.Node, inLit bool, node *Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			collect(pass, n.Body, true, node)
			return false
		case *ast.GoStmt:
			if callee := pass.FuncFor(n.Call.Fun); callee != nil {
				node.Spawns = append(node.Spawns, Edge{Callee: callee, Pos: n.Pos(), InLiteral: inLit})
			}
			// The call's arguments (and a spawned literal's body) still
			// walk normally via Inspect children.
			return true
		case *ast.CallExpr:
			if callee := pass.FuncFor(n.Fun); callee != nil {
				node.Calls = append(node.Calls, Edge{Callee: callee, Pos: n.Pos(), InLiteral: inLit})
			}
		}
		return true
	})
}

// Node returns the graph node declaring fn, or nil for functions not
// declared in this package.
func (g *Graph) Node(fn *types.Func) *Node {
	return g.nodes[fn]
}

// Nodes returns the package's functions in declaration order.
func (g *Graph) Nodes() []*Node {
	return g.sorted
}

// Closure propagates a property bottom-up through call edges to a
// fixpoint, keeping one witness per function. A declared function has the
// property if seed reports it directly (true for sinks and for external
// callees whose imported facts carry the property), or else if any of its
// resolved callees — in-package, recursive cycles included — has it, in
// which case it takes the witness of the first such callee in body order.
// The result maps each declared function that has the property to its
// witness.
func (g *Graph) Closure(seed func(*types.Func) (string, bool)) map[*types.Func]string {
	has := make(map[*types.Func]string)
	for _, n := range g.sorted {
		if w, ok := seed(n.Func); ok {
			has[n.Func] = w
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.sorted {
			if _, done := has[n.Func]; done {
				continue
			}
			for _, e := range n.Calls {
				w, ok := has[e.Callee]
				if g.nodes[e.Callee] == nil {
					w, ok = seed(e.Callee)
				}
				if ok {
					has[n.Func] = w
					changed = true
					break
				}
			}
		}
	}
	return has
}

// Package lockorder detects lock-ordering cycles across the whole
// program — the ABBA deadlock class that lockhold (which only sees a
// blocking call under one lock) cannot: goroutine 1 holds A and wants B
// while goroutine 2 holds B and wants A, and both stall forever with no
// blocking *operation* in sight, just two Lock calls in opposite orders.
//
// Locks are identified structurally, not per instance: a mutex field is
// "pkg.Type.field", a package-level mutex is "pkg.var", and a promoted
// (embedded) mutex is "pkg.Type". Function-local mutexes have no stable
// cross-function identity and are skipped. Identifying by type means two
// *instances* of one type locked in opposite orders also report — which is
// the classic ABBA shape — at the cost of flagging deliberate
// instance-ordered hierarchies (annotate those //lint:allow lockorder).
//
// Per function, package heldlock's statement walk (the one lockhold uses)
// records every ordered pair (A held, B acquired). Acquisitions inside
// callees count too: each function's transitively-acquired lock set is
// computed to a fixpoint over the package call graph and exported as an
// object fact, so a call made under a lock contributes edges for
// everything the callee (even in another package) eventually locks.
//
// Edges accumulate in the analyzer instance across every package of the
// run, riding the driver's deps-before-dependents order. When a new edge
// A→B closes a directed cycle among the accumulated edges, the acquisition
// that completed it is reported with the full cycle path; each edge
// reports at most once, at the first site that introduces it.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"spectra/internal/lint/analysis"
	"spectra/internal/lint/callgraph"
	"spectra/internal/lint/heldlock"
)

// acquiresFact records the locks a function acquires, directly or through
// its callees, for importers to consult at call sites made under a lock.
type acquiresFact struct {
	// Locks are lock identities, sorted.
	Locks []string
}

// New returns the analyzer. One instance accumulates the program-wide
// edge set; create a fresh instance per run.
func New() *analysis.Analyzer {
	g := &global{edges: map[string]map[string]token.Pos{}}
	return &analysis.Analyzer{
		Name: "lockorder",
		Doc: "detects lock-ordering cycles program-wide: if one path acquires " +
			"mutex B while holding A and another acquires A while holding B " +
			"(directly or through callees), the two paths can deadlock; " +
			"acquire locks in one consistent global order or annotate the " +
			"deliberate inversion with //lint:allow lockorder",
		Run: func(pass *analysis.Pass) error {
			g.run(pass)
			return nil
		},
	}
}

// global is the per-run accumulator: the ordered-acquisition graph over
// lock identities, merged across every analyzed package.
type global struct {
	// edges[a][b] is the position that first established "b acquired while
	// a held".
	edges map[string]map[string]token.Pos
}

func (g *global) run(pass *analysis.Pass) {
	cg := callgraph.Build(pass)
	acquired := computeAcquired(pass, cg)
	for fn, locks := range acquired {
		if len(locks) > 0 {
			pass.ExportObjectFact(fn, &acquiresFact{Locks: sortedKeys(locks)})
		}
	}
	w := &heldlock.Walker{
		Pass:    pass,
		Ident:   func(recv ast.Expr) string { return lockIdent(pass, recv) },
		Acquire: func(id string, pos token.Pos, held heldlock.Held) { g.acquire(pass, id, pos, held) },
		Call: func(call *ast.CallExpr, held heldlock.Held) {
			// A callee's locks are all charged at the call site.
			if callee := pass.FuncFor(call.Fun); callee != nil {
				for _, id := range calleeLocks(pass, acquired, callee) {
					g.acquire(pass, id, call.Pos(), held)
				}
			}
		},
	}
	for _, n := range cg.Nodes() {
		w.Walk(n.Decl.Body)
	}
}

// computeAcquired maps each declared function to the set of lock
// identities it acquires, transitively through same-package callees (to a
// fixpoint) and cross-package callees (through facts).
func computeAcquired(pass *analysis.Pass, cg *callgraph.Graph) map[*types.Func]map[string]bool {
	acquired := make(map[*types.Func]map[string]bool)
	for _, n := range cg.Nodes() {
		set := map[string]bool{}
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			if _, ok := node.(*ast.FuncLit); ok {
				return false
			}
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			if recv, acq, ok := heldlock.LockOp(pass, call); ok && acq {
				if id := lockIdent(pass, recv); id != "" {
					set[id] = true
				}
			}
			return true
		})
		acquired[n.Func] = set
	}
	// Fold in callee sets until stable; external callees answer via facts
	// (their sets are already transitive when exported).
	for changed := true; changed; {
		changed = false
		for _, n := range cg.Nodes() {
			set := acquired[n.Func]
			for _, e := range n.Calls {
				if e.InLiteral {
					// A literal's locks are charged when (if) it runs, not to
					// the function that merely constructs it.
					continue
				}
				for _, id := range calleeLocks(pass, acquired, e.Callee) {
					if !set[id] {
						set[id] = true
						changed = true
					}
				}
			}
		}
	}
	return acquired
}

// calleeLocks returns the lock set of a callee, from the in-package map
// or, for external functions, the exported fact.
func calleeLocks(pass *analysis.Pass, acquired map[*types.Func]map[string]bool, callee *types.Func) []string {
	if set, ok := acquired[callee]; ok {
		return sortedKeys(set)
	}
	var fact acquiresFact
	if pass.ImportObjectFact(callee, &fact) {
		return fact.Locks
	}
	return nil
}

// acquire records edges held→id and reports if one closes a cycle.
func (g *global) acquire(pass *analysis.Pass, id string, pos token.Pos, held heldlock.Held) {
	for a := range held {
		if a == id {
			continue // re-entrant acquisition is lockhold's concern, not ordering
		}
		if _, seen := g.edges[a][id]; seen {
			continue
		}
		if g.edges[a] == nil {
			g.edges[a] = map[string]token.Pos{}
		}
		g.edges[a][id] = pos
		if path := g.findPath(id, a); path != nil {
			pass.Reportf(pos,
				"acquiring %s while holding %s creates a lock-order cycle (%s); "+
					"acquire locks in one consistent order or annotate //lint:allow lockorder",
				id, a, strings.Join(append([]string{a, id}, path[1:]...), " -> "))
		}
	}
}

// findPath returns a node path from src to dst over the accumulated
// edges, or nil. Deterministic: neighbors visited in sorted order.
func (g *global) findPath(src, dst string) []string {
	var dfs func(node string, visited map[string]bool) []string
	dfs = func(node string, visited map[string]bool) []string {
		if node == dst {
			return []string{node}
		}
		visited[node] = true
		for _, next := range sortedEdgeKeys(g.edges[node]) {
			if visited[next] {
				continue
			}
			if rest := dfs(next, visited); rest != nil {
				return append([]string{node}, rest...)
			}
		}
		return nil
	}
	return dfs(src, map[string]bool{})
}

// lockIdent names a lock structurally: "pkg.Type.field" for a mutex
// field, "pkg.var" for a package-level mutex, "pkg.Type" for an embedded
// (promoted) mutex. Locals return "".
func lockIdent(pass *analysis.Pass, recv ast.Expr) string {
	switch recv := recv.(type) {
	case *ast.ParenExpr:
		return lockIdent(pass, recv.X)
	case *ast.SelectorExpr:
		// Field selection: identity is the owning named type plus field.
		if sel, ok := pass.TypesInfo.Selections[recv]; ok {
			if _, isVar := sel.Obj().(*types.Var); isVar {
				if named := derefNamed(sel.Recv()); named != nil && named.Obj().Pkg() != nil {
					return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Obj().Name()
				}
			}
			return ""
		}
		// Package-qualified var: pkg.Mu.
		if v, ok := pass.TypesInfo.Uses[recv.Sel].(*types.Var); ok {
			return pkgLevelIdent(v)
		}
	case *ast.Ident:
		v, ok := pass.TypesInfo.Uses[recv].(*types.Var)
		if !ok {
			return ""
		}
		if id := pkgLevelIdent(v); id != "" {
			return id
		}
		// Local variable of a named type: the promoted-mutex receiver shape
		// (s.Lock() with s a *Server embedding sync.Mutex). sync's own types
		// carry no structural identity.
		if named := derefNamed(v.Type()); named != nil && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() != "sync" {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name()
		}
	}
	return ""
}

// pkgLevelIdent names a package-scope variable, or "".
func pkgLevelIdent(v *types.Var) string {
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Path() + "." + v.Name()
	}
	return ""
}

// derefNamed unwraps pointers and returns the named type, or nil.
func derefNamed(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedEdgeKeys(m map[string]token.Pos) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

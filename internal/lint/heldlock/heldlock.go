// Package heldlock is the one statement walk under held mutexes, shared by
// lockhold (blocking operations under a lock) and lockorder (locks
// acquired under a lock). The walker threads a held-lock set through a
// function body; each analyzer supplies how a lock is named and what to
// judge at each point, and keeps only that judgement.
//
// The discipline is intra-procedural and syntactic over the statement
// list: a statement-level call to (*sync.Mutex).Lock /
// (*sync.RWMutex).Lock / RLock adds the receiver's lock to the held set
// until the matching Unlock or RUnlock on the same statement path; a
// deferred Unlock holds the lock to the end of the function. Branch bodies
// run on clones of the set, so their lock-state effects stay local (the
// conservative join keeps the pre-branch state). Deferred calls, go
// statements and function literals are not descended into: deferred work
// runs after the body, and spawned goroutines and literals usually run
// without the caller's locks.
package heldlock

import (
	"go/ast"
	"go/token"
	"maps"

	"spectra/internal/lint/analysis"
)

// Held maps each held lock's identity to the position that acquired it.
type Held map[string]token.Pos

// lockMethods maps lock method full names to whether the call acquires
// (true) or releases (false). TryLock is ignored: its result gates an if.
var lockMethods = map[string]bool{
	"(*sync.Mutex).Lock":      true,
	"(*sync.Mutex).Unlock":    false,
	"(*sync.RWMutex).Lock":    true,
	"(*sync.RWMutex).RLock":   true,
	"(*sync.RWMutex).Unlock":  false,
	"(*sync.RWMutex).RUnlock": false,
}

// LockOp recognizes a mutex acquire or release call and returns its
// receiver expression.
func LockOp(pass *analysis.Pass, call *ast.CallExpr) (recv ast.Expr, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	acquire, ok = lockMethods[analysis.FullName(pass.FuncFor(sel))]
	return sel.X, acquire, ok
}

// Walker walks function bodies under held locks. Ident is required; the
// callbacks are optional.
type Walker struct {
	Pass *analysis.Pass
	// Ident names the lock a Lock/Unlock receiver denotes; "" leaves the
	// call out of the held set.
	Ident func(recv ast.Expr) string
	// Acquire sees each statement-level acquisition of id at pos, before
	// id joins held.
	Acquire func(id string, pos token.Pos, held Held)
	// Call sees every call other than a lock method that is evaluated
	// while a lock is held.
	Call func(call *ast.CallExpr, held Held)
	// Block sees channel sends, channel receives and selects with no
	// default clause while a lock is held; what names the operation.
	Block func(pos token.Pos, what string, held Held)
}

// Walk walks one function body, starting with no lock held.
func (w *Walker) Walk(body *ast.BlockStmt) {
	w.stmts(body.List, Held{})
}

func (w *Walker) stmts(list []ast.Stmt, held Held) {
	for _, stmt := range list {
		w.stmt(stmt, held)
	}
}

func (w *Walker) stmt(stmt ast.Stmt, held Held) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, held)
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return
		}
		recv, acquire, ok := LockOp(w.Pass, call)
		if !ok {
			return
		}
		id := w.Ident(recv)
		switch {
		case id == "":
		case acquire:
			if w.Acquire != nil {
				w.Acquire(id, call.Pos(), held)
			}
			held[id] = call.Pos()
		default:
			delete(held, id)
		}
	case *ast.DeferStmt, *ast.GoStmt:
		return
	case *ast.SendStmt:
		w.block(s.Pos(), "channel send", held)
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	case *ast.IncDecStmt:
		w.expr(s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		w.stmts(s.Body.List, maps.Clone(held))
		if s.Else != nil {
			w.stmt(s.Else, maps.Clone(held))
		}
	case *ast.ForStmt:
		inner := maps.Clone(held)
		if s.Init != nil {
			w.stmt(s.Init, inner)
		}
		if s.Cond != nil {
			w.expr(s.Cond, inner)
		}
		w.stmts(s.Body.List, inner)
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		w.expr(s.X, held)
		w.stmts(s.Body.List, maps.Clone(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e, held)
				}
				w.stmts(cc.Body, maps.Clone(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, maps.Clone(held))
			}
		}
	case *ast.SelectStmt:
		if !hasDefault(s) {
			w.block(s.Pos(), "select with no default clause", held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, maps.Clone(held))
			}
		}
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	}
}

// expr scans an expression evaluated under held locks for channel
// receives and calls, skipping function literals. Lock method calls are
// left to stmt, which owns the held set.
func (w *Walker) expr(e ast.Expr, held Held) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.block(n.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if _, _, isLock := LockOp(w.Pass, n); !isLock && w.Call != nil {
				w.Call(n, held)
			}
		}
		return true
	})
}

func (w *Walker) block(pos token.Pos, what string, held Held) {
	if len(held) > 0 && w.Block != nil {
		w.Block(pos, what, held)
	}
}

func hasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

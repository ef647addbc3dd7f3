// Package lockhold flags blocking operations performed while a
// sync.Mutex or sync.RWMutex is held — the deadlock class behind PR 1's
// failover/health-tracker fix: a mutex held across an RPC call or channel
// wait stalls every other goroutine that needs the lock, turning one slow
// server into a frozen client.
//
// The held-lock walk is package heldlock's, with locks keyed by the
// receiver's spelling (b.mu). While any lock is held, the analyzer reports
// channel sends and receives, selects with no default clause, time.Sleep,
// (*sync.WaitGroup).Wait, and calls in the configured Blocking list
// (typically the RPC client's exchange methods). sync.Cond.Wait is
// exempt: it is specified to be called with the lock held.
package lockhold

import (
	"go/ast"
	"go/token"
	"go/types"

	"spectra/internal/lint/analysis"
	"spectra/internal/lint/heldlock"
)

// Config tunes the analyzer.
type Config struct {
	// Blocking lists extra functions (types.Func.FullName form, e.g.
	// "(*spectra/internal/rpc.Client).Call" or "net.Dial") to treat as
	// blocking in addition to the built-in set.
	Blocking []string
}

// builtinBlocking are always treated as blocking calls.
var builtinBlocking = []string{
	"time.Sleep",
	"(*sync.WaitGroup).Wait",
}

// New returns the analyzer.
func New(cfg Config) *analysis.Analyzer {
	blocking := make(map[string]bool)
	for _, name := range builtinBlocking {
		blocking[name] = true
	}
	for _, name := range cfg.Blocking {
		blocking[name] = true
	}
	return &analysis.Analyzer{
		Name: "lockhold",
		Doc: "flags blocking operations (channel ops, selects, sleeps, RPC " +
			"calls) while a sync.Mutex/RWMutex is held; release the lock " +
			"before blocking or annotate with //lint:allow lockhold",
		Run: func(pass *analysis.Pass) error {
			report := func(pos token.Pos, what string, held heldlock.Held) {
				for key, lockPos := range held {
					pass.Reportf(pos,
						"blocking operation (%s) while %s is locked (acquired at %s); release the lock first",
						what, key, pass.Fset.Position(lockPos))
				}
			}
			w := &heldlock.Walker{
				Pass:  pass,
				Ident: types.ExprString,
				Call: func(call *ast.CallExpr, held heldlock.Held) {
					if name := analysis.FullName(pass.FuncFor(call.Fun)); blocking[name] {
						report(call.Pos(), name, held)
					}
				},
				Block: report,
			}
			for _, file := range pass.Files {
				for _, decl := range file.Decls {
					if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
						w.Walk(fn.Body)
					}
				}
			}
			return nil
		},
	}
}

// Package order is the lockorder golden package: acquisition-order
// inversions within one package, direct and through callees.
package order

import "sync"

// S carries the mutex fields under test.
type S struct {
	mu1 sync.Mutex
	mu2 sync.Mutex
	c   sync.Mutex
	d   sync.Mutex
	e   sync.Mutex
	f   sync.Mutex
	g   sync.Mutex
	p   sync.Mutex
	q   sync.Mutex
}

// TakeAB establishes mu1 -> mu2.
func TakeAB(s *S) {
	s.mu1.Lock()
	s.mu2.Lock()
	s.mu2.Unlock()
	s.mu1.Unlock()
}

// TakeBA inverts the order: the mu1 acquisition completes the cycle.
func TakeBA(s *S) {
	s.mu2.Lock()
	s.mu1.Lock() // want `acquiring .*S\.mu1 while holding .*S\.mu2 creates a lock-order cycle`
	s.mu1.Unlock()
	s.mu2.Unlock()
}

// lockD acquires d; callers holding other locks inherit the edge.
func lockD(s *S) {
	s.d.Lock()
	s.d.Unlock()
}

// CThenD establishes c -> d through the callee's acquired set.
func CThenD(s *S) {
	s.c.Lock()
	lockD(s)
	s.c.Unlock()
}

// DThenC inverts directly against the callee-borne edge.
func DThenC(s *S) {
	s.d.Lock()
	s.c.Lock() // want `acquiring .*S\.c while holding .*S\.d creates a lock-order cycle`
	s.c.Unlock()
	s.d.Unlock()
}

// Package-level mutexes are identified by package path and name.
var (
	muG sync.Mutex
	muH sync.Mutex
)

// GH establishes muG -> muH.
func GH() {
	muG.Lock()
	muH.Lock()
	muH.Unlock()
	muG.Unlock()
}

// HG inverts.
func HG() {
	muH.Lock()
	muG.Lock() // want `acquiring .*order\.muG while holding .*order\.muH creates a lock-order cycle`
	muG.Unlock()
	muH.Unlock()
}

// Box embeds its mutex; the promoted Lock carries the type's identity.
type Box struct {
	sync.Mutex
}

// BoxThenE establishes Box -> S.e.
func BoxThenE(b *Box, s *S) {
	b.Lock()
	s.e.Lock()
	s.e.Unlock()
	b.Unlock()
}

// EThenBox inverts against the embedded-mutex identity.
func EThenBox(b *Box, s *S) {
	s.e.Lock()
	b.Lock() // want `acquiring .*order\.Box while holding .*S\.e creates a lock-order cycle`
	b.Unlock()
	s.e.Unlock()
}

// Released does not order mu2 before mu1: mu2 is gone by then.
func Released(s *S) {
	s.mu2.Lock()
	s.mu2.Unlock()
	s.mu1.Lock()
	s.mu1.Unlock()
}

// Locals have no stable identity and are skipped entirely.
func Locals() {
	var a, b sync.Mutex
	a.Lock()
	b.Lock()
	b.Unlock()
	a.Unlock()
	b.Lock()
	a.Lock()
	a.Unlock()
	b.Unlock()
}

// FG establishes f -> g.
func FG(s *S) {
	s.f.Lock()
	s.g.Lock()
	s.g.Unlock()
	s.f.Unlock()
}

// GFAllowed inverts deliberately; the annotation suppresses the finding.
func GFAllowed(s *S) {
	s.g.Lock()
	//lint:allow lockorder deliberate teardown-path inversion, guarded by a single caller
	s.f.Lock()
	s.f.Unlock()
	s.g.Unlock()
}

// lockQ acquires q and yields a value a switch case can compare against.
func (s *S) lockQ() int {
	s.q.Lock()
	defer s.q.Unlock()
	return 1
}

// PThenQInCase establishes p -> q through a callee evaluated in a switch
// case expression, which runs while p is held.
func PThenQInCase(s *S, k int) {
	s.p.Lock()
	switch k {
	case s.lockQ():
	}
	s.p.Unlock()
}

// QThenP inverts against the case-borne edge.
func QThenP(s *S) {
	s.q.Lock()
	s.p.Lock() // want `acquiring .*S\.p while holding .*S\.q creates a lock-order cycle`
	s.p.Unlock()
	s.q.Unlock()
}

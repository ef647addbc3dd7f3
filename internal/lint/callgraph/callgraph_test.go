package callgraph_test

import (
	"go/types"
	"testing"

	"spectra/internal/lint/analysis"
	"spectra/internal/lint/callgraph"
	"spectra/internal/lint/load"
)

// buildGolden loads the golden package and builds its graph.
func buildGolden(t *testing.T) (*analysis.Pass, *callgraph.Graph) {
	t.Helper()
	prog, err := load.Load(".", "./testdata/src/calls")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Roots) != 1 {
		t.Fatalf("want 1 root package, got %d", len(prog.Roots))
	}
	pkg := prog.Roots[0]
	pass := &analysis.Pass{
		Analyzer:  &analysis.Analyzer{Name: "test"},
		Fset:      prog.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
	}
	return pass, callgraph.Build(pass)
}

// nodeByName finds a declared function node by name (methods by bare name).
func nodeByName(t *testing.T, g *callgraph.Graph, name string) *callgraph.Node {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Func.Name() == name {
			return n
		}
	}
	t.Fatalf("no node named %q", name)
	return nil
}

func TestEdges(t *testing.T) {
	_, g := buildGolden(t)

	direct := nodeByName(t, g, "Direct")
	if len(direct.Calls) != 1 || direct.Calls[0].Callee.Name() != "Sink" {
		t.Fatalf("Direct edges: %+v", direct.Calls)
	}
	if direct.Calls[0].InLiteral {
		t.Fatal("Direct's call wrongly marked InLiteral")
	}

	clean := nodeByName(t, g, "Clean")
	if len(clean.Calls) != 1 || clean.Calls[0].Callee.Pkg().Path() != "strings" {
		t.Fatalf("Clean should have one cross-package edge into strings, got %+v", clean.Calls)
	}

	lit := nodeByName(t, g, "InLiteral")
	if len(lit.Calls) != 1 || !lit.Calls[0].InLiteral {
		t.Fatalf("InLiteral's nested call should carry InLiteral=true, got %+v", lit.Calls)
	}

	spawner := nodeByName(t, g, "Spawner")
	if len(spawner.Spawns) != 1 || spawner.Spawns[0].Callee.Name() != "Loop" {
		t.Fatalf("Spawner spawns: %+v", spawner.Spawns)
	}
}

func TestMethodsAreNodes(t *testing.T) {
	_, g := buildGolden(t)
	hit := nodeByName(t, g, "Hit")
	if len(hit.Calls) != 1 || hit.Calls[0].Callee.Name() != "Direct" {
		t.Fatalf("method Hit edges: %+v", hit.Calls)
	}
}

func TestClosure(t *testing.T) {
	_, g := buildGolden(t)
	sink := nodeByName(t, g, "Sink").Func
	reaches := g.Closure(func(f *types.Func) (string, bool) { return f.Name(), f == sink })

	want := map[string]bool{
		"Sink":      true, // the seed itself
		"Direct":    true,
		"Indirect":  true,
		"Hit":       true,
		"InLiteral": true, // literal calls attribute to the declaration
		"MutualA":   true, // through the two-node cycle
		"MutualB":   true,
		"Clean":     false,
		"Miss":      false,
		"Spawner":   false, // spawns are not call edges
		"Loop":      false, // self-cycle converges without the property
	}
	for _, n := range g.Nodes() {
		w, ok := want[n.Func.Name()]
		if !ok {
			continue
		}
		witness, got := reaches[n.Func]
		if got != w {
			t.Errorf("Closure(%s) = %v, want %v", n.Func.Name(), got, w)
		}
		if got && witness != "Sink" {
			t.Errorf("Closure(%s) witness = %q, want the seed's %q", n.Func.Name(), witness, "Sink")
		}
	}
}

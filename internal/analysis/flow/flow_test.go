package flow_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/flow"
	"repro/internal/analysis/ftvet"
)

// buildFixtureGraph loads the interprocedural fixture packages in
// fixture mode and builds one graph over them, shared by every test.
func buildFixtureGraph(t *testing.T) *flow.Graph {
	t.Helper()
	td, err := filepath.Abs("../testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	loader := ftvet.NewLoader(td, "")
	var pkgs []*ftvet.Package
	for _, p := range []string{
		"repro/internal/timeutil",
		"repro/internal/apps/interfix",
	} {
		pkg, err := loader.Load(p)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return flow.Build(loader.Fset, pkgs)
}

// node finds a function node by package path suffix and name.
func node(t *testing.T, g *flow.Graph, pkgSuffix, name string) *flow.Node {
	t.Helper()
	for _, n := range g.Functions() {
		if n.Fn.Name() == name && filepath.Base(n.Pkg.Path) == pkgSuffix {
			return n
		}
	}
	t.Fatalf("no node %s.%s in graph", pkgSuffix, name)
	return nil
}

func TestTaintSummaries(t *testing.T) {
	g := buildFixtureGraph(t)

	now := node(t, g, "timeutil", "now")
	if len(now.Sum.ResultTaints) != 1 || now.Sum.ResultTaints[0].Kind != flow.TaintClock {
		t.Fatalf("timeutil.now taints = %+v, want one direct clock taint", now.Sum.ResultTaints)
	}
	if len(now.Sum.ResultTaints[0].Via) != 0 {
		t.Errorf("direct source should have an empty via chain, got %+v", now.Sum.ResultTaints[0].Via)
	}

	stamp := node(t, g, "timeutil", "Stamp")
	if len(stamp.Sum.ResultTaints) != 1 || stamp.Sum.ResultTaints[0].Kind != flow.TaintClock {
		t.Fatalf("timeutil.Stamp taints = %+v, want one clock taint through now", stamp.Sum.ResultTaints)
	}
	if via := stamp.Sum.ResultTaints[0].Via; len(via) != 1 || via[0].Name != "timeutil.now" {
		t.Errorf("Stamp taint via = %+v, want one hop through timeutil.now", via)
	}

	keys := node(t, g, "timeutil", "Keys")
	if len(keys.Sum.ResultTaints) != 1 || keys.Sum.ResultTaints[0].Kind != flow.TaintMapOrder {
		t.Errorf("timeutil.Keys taints = %+v, want one map-order taint", keys.Sum.ResultTaints)
	}
	sorted := node(t, g, "timeutil", "SortedKeys")
	if len(sorted.Sum.ResultTaints) != 0 {
		t.Errorf("timeutil.SortedKeys taints = %+v, want none (collect-then-sort)", sorted.Sum.ResultTaints)
	}
}

// TestEffectSummariesAndSCC checks the component machinery every summary
// rides on: mutual recursion converges with a callee's effect (here, a
// clock read) visible on both members of the cycle, and components are
// numbered bottom-up.
func TestEffectSummariesAndSCC(t *testing.T) {
	g := buildFixtureGraph(t)

	outer, inner := node(t, g, "timeutil", "Backoff"), node(t, g, "timeutil", "backoff")
	if outer.SCC != inner.SCC {
		t.Errorf("Backoff (SCC %d) and backoff (SCC %d) should share a component", outer.SCC, inner.SCC)
	}
	for _, n := range []*flow.Node{outer, inner} {
		if len(n.Sum.ResultTaints) == 0 || n.Sum.ResultTaints[0].Kind != flow.TaintClock {
			t.Errorf("recursive fixpoint lost backoff's clock taint in %s's summary %+v", n.Fn.Name(), n.Sum.ResultTaints)
		}
	}
	// Bottom-up ordering: a callee's component precedes its caller's.
	if now, stamp := node(t, g, "timeutil", "now"), node(t, g, "timeutil", "Stamp"); now.SCC >= stamp.SCC {
		t.Errorf("callee now (SCC %d) must be summarized before caller Stamp (SCC %d)", now.SCC, stamp.SCC)
	}
	if impl := node(t, g, "interfix", "now"); impl.SCC >= node(t, g, "interfix", "tickGood").SCC {
		t.Errorf("dispatch callee counter.now must be summarized before caller tickGood")
	}
}

// TestDispatchResolvesToImplementations checks that a call through an
// interface is an edge marked Dynamic to every implementation declared in
// the tree: here the one, counter.now.
func TestDispatchResolvesToImplementations(t *testing.T) {
	g := buildFixtureGraph(t)

	found := false
	for _, e := range node(t, g, "interfix", "tickGood").Out {
		if e.Dynamic && e.Callee.Fn.Name() == "now" {
			found = true
			if len(g.CalleesAt(e.Site)) != 1 {
				t.Errorf("now dispatch resolved to %d candidates, want exactly counter.now", len(g.CalleesAt(e.Site)))
			}
		}
	}
	if !found {
		t.Error("no dynamic edge from tickGood to counter.now: dispatch resolution is broken")
	}
}

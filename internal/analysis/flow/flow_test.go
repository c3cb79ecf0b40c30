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
		"repro/internal/lockiface",
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
// lock acquisition) visible on both members of the cycle, and components
// are numbered bottom-up.
func TestEffectSummariesAndSCC(t *testing.T) {
	g := buildFixtureGraph(t)

	ping, pong := node(t, g, "lockiface", "ping"), node(t, g, "lockiface", "pong")
	if ping.SCC != pong.SCC {
		t.Errorf("ping (SCC %d) and pong (SCC %d) should share a component", ping.SCC, pong.SCC)
	}
	for _, n := range []*flow.Node{ping, pong} {
		if _, ok := n.Sum.Locks["lockiface.D.a"]; !ok {
			t.Errorf("recursive fixpoint lost pong's lock in %s's set %v", n.Fn.Name(), n.Sum.Locks)
		}
	}
	// Bottom-up ordering: a callee's component precedes its caller's.
	forward := node(t, g, "lockiface", "forward")
	if lockB := node(t, g, "lockiface", "lockB"); lockB.SCC >= forward.SCC {
		t.Errorf("callee lockB (SCC %d) must be summarized before caller forward (SCC %d)", lockB.SCC, forward.SCC)
	}
	if park := node(t, g, "lockiface", "park"); park.SCC >= node(t, g, "lockiface", "reverse").SCC {
		t.Errorf("dispatch callee park must be summarized before caller reverse")
	}
}

func TestLockSummariesAndDispatch(t *testing.T) {
	g := buildFixtureGraph(t)

	forward := node(t, g, "lockiface", "forward")
	for _, id := range []string{"lockiface.D.a", "lockiface.D.b"} {
		if _, ok := forward.Sum.Locks[id]; !ok {
			t.Errorf("forward transitive lock set %v missing %q", forward.Sum.Locks, id)
		}
	}

	// reverse only reaches D.a through the interface: the lock set must
	// cross the dynamic edge, and the edge itself must be marked Dynamic.
	reverse := node(t, g, "lockiface", "reverse")
	if _, ok := reverse.Sum.Locks["lockiface.D.a"]; !ok {
		t.Errorf("reverse lock set %v missing the dispatch-acquired lockiface.D.a", reverse.Sum.Locks)
	}
	foundDynamic := false
	for _, e := range reverse.Out {
		if e.Dynamic && e.Callee.Fn.Name() == "park" {
			foundDynamic = true
			if len(g.CalleesAt(e.Site)) != 1 {
				t.Errorf("park dispatch resolved to %d candidates, want exactly aParker", len(g.CalleesAt(e.Site)))
			}
		}
	}
	if !foundDynamic {
		t.Error("no dynamic edge from reverse to aParker.park: dispatch resolution is broken")
	}
}

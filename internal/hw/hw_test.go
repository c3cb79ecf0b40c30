package hw

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func newTestMachine(t *testing.T) *Machine {
	t.Helper()
	return New(sim.New(1), Opteron6376x4())
}

func TestProfileShape(t *testing.T) {
	p := Opteron6376x4()
	if got := p.TotalCores(); got != 64 {
		t.Errorf("TotalCores = %d, want 64", got)
	}
	if got := p.TotalNodes(); got != 8 {
		t.Errorf("TotalNodes = %d, want 8", got)
	}
	if got := p.TotalMem(); got != 128<<30 {
		t.Errorf("TotalMem = %d, want 128 GiB", got)
	}
	if got := MemDumpMachine().TotalMem(); got != 96<<30 {
		t.Errorf("MemDumpMachine TotalMem = %d, want 96 GiB", got)
	}
}

func TestMachineTopology(t *testing.T) {
	m := newTestMachine(t)
	if len(m.Nodes()) != 8 {
		t.Fatalf("nodes = %d, want 8", len(m.Nodes()))
	}
	if len(m.Cores()) != 64 {
		t.Fatalf("cores = %d, want 64", len(m.Cores()))
	}
	for i, n := range m.Nodes() {
		if n.ID != i {
			t.Errorf("node %d has ID %d", i, n.ID)
		}
		if len(n.Cores) != 8 {
			t.Errorf("node %d has %d cores, want 8", i, len(n.Cores))
		}
		for _, c := range n.Cores {
			if c.Node != n {
				t.Errorf("core %d back-pointer wrong", c.ID)
			}
		}
	}
	// Node 0 and 1 share socket 0; node 0 and 7 are on different sockets.
	if m.Hops(0, 0) != 0 || m.Hops(0, 1) != 1 || m.Hops(0, 7) != 2 {
		t.Errorf("hops: got %d,%d,%d want 0,1,2", m.Hops(0, 0), m.Hops(0, 1), m.Hops(0, 7))
	}
	if m.MemLatency(0, 0) >= m.MemLatency(0, 7) {
		t.Error("remote access not slower than local")
	}
}

func TestPartitioningDisjoint(t *testing.T) {
	m := newTestMachine(t)
	p0, err := m.NewPartition("primary", 0, 1, 2, 3)
	if err != nil {
		t.Fatalf("primary: %v", err)
	}
	p1, err := m.NewPartition("secondary", 4, 5, 6, 7)
	if err != nil {
		t.Fatalf("secondary: %v", err)
	}
	if len(p0.Cores()) != 32 || len(p1.Cores()) != 32 {
		t.Errorf("partition cores = %d/%d, want 32/32", len(p0.Cores()), len(p1.Cores()))
	}
	if p0.Mem() != 64<<30 {
		t.Errorf("primary mem = %d, want 64 GiB", p0.Mem())
	}
	if !p0.Owns(0) || p0.Owns(4) {
		t.Error("Owns() wrong")
	}
	if _, err := m.NewPartition("overlap", 3); err == nil {
		t.Error("overlapping partition was allowed")
	}
	if _, err := m.NewPartition("bogus", 42); err == nil {
		t.Error("nonexistent node was allowed")
	}
	if _, err := m.NewPartition("empty"); err == nil {
		t.Error("empty partition was allowed")
	}
	if lat := p0.CrossLatency(p1); lat < 550*time.Nanosecond {
		t.Errorf("cross latency %v below core-to-core floor", lat)
	}
}

func TestAsymmetricPartition(t *testing.T) {
	m := newTestMachine(t)
	// The mixed-workload experiment (§4.3) uses a 32-core primary and a
	// single-core secondary; the closest node-granular split is 4 nodes vs
	// 1 node — the kernel layer further restricts usable cores.
	p0, err := m.NewPartition("primary", 0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := m.NewPartition("secondary", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p0.Cores()) != 32 || len(p1.Cores()) != 8 {
		t.Errorf("cores = %d/%d, want 32/8", len(p0.Cores()), len(p1.Cores()))
	}
}

func TestFaultDelivery(t *testing.T) {
	s := sim.New(1)
	m := New(s, Opteron6376x4())
	var got []Fault
	m.OnFault(func(f Fault) { got = append(got, f) })
	m.InjectAfter(5*time.Millisecond, Fault{Kind: MemUncorrected, Node: 2, Core: -1, Addr: 1 << 20})
	m.InjectAfter(time.Millisecond, Fault{Kind: CoreFailStop, Node: 0, Core: 3, Addr: -1})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("delivered %d faults, want 2", len(got))
	}
	if got[0].Kind != CoreFailStop || got[0].Time != sim.Time(time.Millisecond) {
		t.Errorf("first fault = %v", got[0])
	}
	if got[1].Kind != MemUncorrected || got[1].Node != 2 {
		t.Errorf("second fault = %v", got[1])
	}
}

func TestInjectHelpers(t *testing.T) {
	s := sim.New(1)
	m := New(s, Opteron6376x4())
	var got []Fault
	m.OnFault(func(f Fault) { got = append(got, f) })
	m.Inject(Fault{Kind: CoreFailStop, Node: m.Cores()[17].Node.ID, Core: m.Cores()[17].ID, Addr: -1})
	m.InjectAfter(time.Millisecond, Fault{Kind: MemUncorrected, Node: 3, Core: -1, Addr: 456})
	m.Inject(Fault{Kind: MemCorrected, Node: 3, Core: -1, Addr: 123})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d faults, want 3", len(got))
	}
	if got[0].Kind != CoreFailStop || got[0].Node != m.Cores()[17].Node.ID {
		t.Errorf("core fail-stop fault = %v", got[0])
	}
	if got[1].Kind != MemCorrected || got[2].Kind != MemUncorrected {
		t.Errorf("memory fault kinds = %v, %v", got[1].Kind, got[2].Kind)
	}
	if got[1].Time != 0 || got[2].Time != sim.Time(time.Millisecond) {
		t.Errorf("fault times = %v, %v, want 0 and 1ms (stamped at delivery)", got[1].Time, got[2].Time)
	}
}

func TestRandomMemErrorAddrInRange(t *testing.T) {
	s := sim.New(7)
	m := New(s, Opteron6376x4())
	for i := 0; i < 1000; i++ {
		node, addr := m.RandomMemErrorAddr()
		if node < 0 || node >= 8 {
			t.Fatalf("node %d out of range", node)
		}
		lo := int64(node) * m.Profile().MemPerNode
		if addr < lo || addr >= lo+m.Profile().MemPerNode {
			t.Fatalf("addr %d outside node %d range", addr, node)
		}
	}
}

func TestFaultKindString(t *testing.T) {
	if CoreFailStop.String() != "core-fail-stop" {
		t.Errorf("String = %q", CoreFailStop.String())
	}
	if FaultKind(99).String() == "" {
		t.Error("unknown kind printed empty")
	}
	f := Fault{Time: sim.Time(time.Millisecond), Kind: MemUncorrected, Node: 3, Core: -1, Addr: 456}
	if got, want := f.String(), "mem-uncorrected@node3 t=1ms"; got != want {
		t.Errorf("Fault.String = %q, want %q", got, want)
	}
}

// TestFaultDomains pins the balanced contiguous split the replica-set
// placement defaults to.
func TestFaultDomains(t *testing.T) {
	p := Opteron6376x4()
	cases := map[int][][]int{
		2: {{0, 1, 2, 3}, {4, 5, 6, 7}},
		3: {{0, 1, 2}, {3, 4, 5}, {6, 7}},
		4: {{0, 1}, {2, 3}, {4, 5}, {6, 7}},
		8: {{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}},
	}
	for n, want := range cases {
		got, err := p.FaultDomains(n)
		if err != nil {
			t.Fatalf("FaultDomains(%d): %v", n, err)
		}
		if len(got) != len(want) {
			t.Fatalf("FaultDomains(%d) = %v, want %v", n, got, want)
		}
		seen := map[int]bool{}
		for i := range got {
			if len(got[i]) != len(want[i]) {
				t.Errorf("FaultDomains(%d)[%d] = %v, want %v", n, i, got[i], want[i])
			}
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Errorf("FaultDomains(%d)[%d] = %v, want %v", n, i, got[i], want[i])
				}
				if seen[got[i][j]] {
					t.Errorf("FaultDomains(%d): node %d in two domains", n, got[i][j])
				}
				seen[got[i][j]] = true
			}
		}
	}
	if _, err := p.FaultDomains(1); err == nil {
		t.Error("FaultDomains(1) accepted, want error")
	}
	if _, err := p.FaultDomains(9); err == nil {
		t.Error("FaultDomains(9) exceeds the profile's nodes, want error")
	}
}

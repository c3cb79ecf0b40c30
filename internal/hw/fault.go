package hw

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// FaultKind enumerates the hardware fault classes of the paper's failure
// model (§2.1): fail-stop faults and data-corruption faults that are
// detected before they cause cross-replica contamination.
type FaultKind int

const (
	// CoreFailStop is a CPU core ceasing execution (§2.1). On stock Linux a
	// core fail-stop takes down the entire machine (Shalev et al., §2.3).
	CoreFailStop FaultKind = iota + 1
	// MemUncorrected is a detected-but-uncorrected memory error (DUE),
	// reported through MCA/AER-style machine-check hardware.
	MemUncorrected
	// MemCorrected is a correctable memory error (CE). It is reported but
	// harmless unless errors arrive so fast the kernel is bombarded by
	// exceptions (the 10%-of-2% unresponsive servers of Meza et al., §2.2).
	MemCorrected
	// CoherencyLoss is a fault that disrupts cache coherency for a node's
	// outstanding writes: in-flight inter-replica messages from that node
	// may be lost (§3.5). The paper conjectures this case is rare.
	CoherencyLoss
)

var faultKindNames = map[FaultKind]string{
	CoreFailStop:   "core-fail-stop",
	MemUncorrected: "mem-uncorrected",
	MemCorrected:   "mem-corrected",
	CoherencyLoss:  "coherency-loss",
}

func (k FaultKind) String() string {
	if s, ok := faultKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one detected hardware fault, delivered to fault subscribers the
// way Intel MCA / AER deliver machine-check exceptions to the OS.
type Fault struct {
	Time sim.Time
	Kind FaultKind
	Node int   // NUMA node the fault occurred on
	Core int   // core ID for CoreFailStop, -1 otherwise
	Addr int64 // physical byte address for memory faults, -1 otherwise
}

func (f Fault) String() string {
	return fmt.Sprintf("%s@node%d t=%v", f.Kind, f.Node, f.Time)
}

// OnFault registers a machine-check subscriber. Every injected fault is
// delivered to every subscriber, in registration order, at injection time;
// subscribers filter by partition ownership themselves (a kernel only sees
// the error reporting banks of the hardware it runs on, but the shared
// messaging layer observes coherency loss machine-wide).
func (m *Machine) OnFault(fn func(Fault)) {
	m.subs = append(m.subs, fn)
}

// Inject delivers a fault to all subscribers at the current virtual time.
// The Time field is stamped by Inject.
func (m *Machine) Inject(f Fault) {
	f.Time = m.sim.Now()
	for _, fn := range m.subs {
		fn(f)
	}
}

// InjectAfter schedules a fault injection after delay d.
func (m *Machine) InjectAfter(d time.Duration, f Fault) {
	m.sim.Schedule(d, func() { m.Inject(f) })
}

// RandomMemErrorAddr picks a uniformly random physical address on a random
// node, drawn from the root domain's stream (the fault strikes the machine,
// not a kernel). It returns the node and the machine-wide physical address.
func (m *Machine) RandomMemErrorAddr() (node int, addr int64) {
	rng := m.sim.Root().Rand()
	node = rng.IntN(len(m.nodes))
	off := rng.Int64N(m.nodes[node].Mem)
	return node, int64(node)*m.prof.MemPerNode + off
}

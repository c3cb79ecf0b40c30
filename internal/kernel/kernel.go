// Package kernel models one operating-system kernel booted on a hardware
// partition, as in Popcorn/FT-Linux's multikernel design (§3): each kernel
// exclusively owns the cores, memory, and devices of its partition and runs
// completely independently of its peers.
//
// The model covers the kernel mechanisms the paper's replication protocol
// depends on:
//
//   - per-core CPU scheduling with virtual compute time and an idle-wake
//     (wake_up_process) latency that can reach tens of milliseconds — the
//     bottleneck identified in §4.1;
//   - a one-task wait record (Waiter) with the futex-word protocol, which
//     pthread's FIFO waiter queues grant in order — the paper's FIFO-futex
//     modification (§3.3) — so lock hand-off order is deterministic;
//   - exclusive device ownership and driver loading with realistic load
//     times (the 5 s NIC reload that dominates failover, §4.4);
//   - physical-memory accounting per page class and machine-check fault
//     handling (panic / delayed / user-kill outcomes, §2.3).
package kernel

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/kmem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Params holds the kernel's timing model.
type Params struct {
	// Quantum is the scheduler timeslice: a computing task yields its core
	// to contenders at this granularity.
	Quantum time.Duration
	// ContextSwitch is the cost of dispatching a task onto a core.
	ContextSwitch time.Duration
	// WakeBase is the baseline cost of wake_up_process for a runnable
	// target on a busy system.
	WakeBase time.Duration
	// IdleThreshold is how long a core must have been idle before waking a
	// task onto it pays the deep-idle penalty.
	IdleThreshold time.Duration
	// IdleWakeMin/IdleWakeMax bound the deep-idle wake penalty; the paper
	// observed wake_up_process taking up to tens of milliseconds when the
	// target processor is idle (§4.1).
	IdleWakeMin time.Duration
	IdleWakeMax time.Duration
	// SyscallCost is the base cost of crossing the syscall boundary.
	SyscallCost time.Duration
	// WakePreemptProb is the probability that a freshly woken task preempts
	// a running batch timeslice instead of waiting for one to end — the
	// model of CFS's vruntime-gated wakeup preemption. 1 = always preempt.
	WakePreemptProb float64
	// FutexFIFO selects the paper's FIFO futex hand-off; disabling it
	// restores stock unordered wake (used by the determinism ablation).
	// pthread's waiter queues read it to pick which record to grant; the
	// kernel's wait record holds one task and has no order of its own.
	FutexFIFO bool
}

// DefaultParams returns the timing model calibrated for the paper's
// evaluation machine.
func DefaultParams() Params {
	return Params{
		Quantum:         6 * time.Millisecond,
		ContextSwitch:   2 * time.Microsecond,
		WakeBase:        3 * time.Microsecond,
		IdleThreshold:   time.Millisecond,
		IdleWakeMin:     50 * time.Microsecond,
		IdleWakeMax:     15 * time.Millisecond,
		SyscallCost:     400 * time.Nanosecond,
		WakePreemptProb: 0.05,
		FutexFIFO:       true,
	}
}

// PanicReason describes why a kernel died.
type PanicReason struct {
	Time  sim.Time
	Cause string
	Fault *hw.Fault // nil if not fault-induced
}

// Kernel is one booted OS instance.
type Kernel struct {
	name   string
	sim    *sim.Simulation
	part   *hw.Partition
	group  *sim.Group
	params Params
	mem    *kmem.Accounting
	sched  *scheduler

	alive    bool
	panicked *PanicReason
	onPanic  []func(PanicReason)
	sc       *obs.Scope

	nextTID   int
	stackless []*Task // the stackless tasks, which no process group kills
	computeNS int64   // total core-time consumed, for utilization accounting
}

// Config configures Boot.
type Config struct {
	// Name identifies the kernel (e.g. "primary", "secondary").
	Name string
	// Params is the timing model; zero value means DefaultParams.
	Params Params
	// Cores restricts the kernel to the first N cores of its partition
	// (0 = all). The mixed-workload experiment (§4.3) boots a single-core
	// secondary on a full NUMA node this way.
	Cores int
	// BaseKernelMem is memory permanently allocated at boot as
	// unrecoverable kernel memory (text, static data, struct page array).
	// Zero means a model default of 1.5% of RAM plus 768 MB.
	BaseKernelMem int64
}

// Boot starts a kernel on a hardware partition.
func Boot(part *hw.Partition, cfg Config) (*Kernel, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("kernel: empty name")
	}
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
	}
	ncores := len(part.Cores())
	if cfg.Cores > 0 {
		if cfg.Cores > ncores {
			return nil, fmt.Errorf("kernel %q: %d cores requested, partition has %d", cfg.Name, cfg.Cores, ncores)
		}
		ncores = cfg.Cores
	}
	s := part.Machine().Sim()
	k := &Kernel{
		name:   cfg.Name,
		sim:    s,
		part:   part,
		group:  s.NewGroup(cfg.Name),
		params: cfg.Params,
		mem:    kmem.NewAccounting(part.Mem(), part.Machine().Profile().PageSize),
		alive:  true,
	}
	k.sched = newScheduler(k, ncores)
	base := cfg.BaseKernelMem
	if base == 0 {
		base = part.Mem()*15/1000 + 768<<20
	}
	if err := k.mem.Alloc(kmem.KernelIgnored, base); err != nil {
		return nil, fmt.Errorf("kernel %q: boot reservation: %w", cfg.Name, err)
	}
	return k, nil
}

// Name returns the kernel's name.
func (k *Kernel) Name() string { return k.name }

// Sim returns the simulation the kernel runs in.
func (k *Kernel) Sim() *sim.Simulation { return k.sim }

// Partition returns the hardware partition the kernel owns.
func (k *Kernel) Partition() *hw.Partition { return k.part }

// Params returns the kernel's timing model.
func (k *Kernel) Params() Params { return k.params }

// Mem returns the kernel's physical-memory accounting.
func (k *Kernel) Mem() *kmem.Accounting { return k.mem }

// Cores reports the number of cores the kernel schedules on.
func (k *Kernel) Cores() int { return k.sched.ncores }

// Alive reports whether the kernel is still running.
func (k *Kernel) Alive() bool { return k.alive }

// PanicReason returns why the kernel died, or nil if it is alive.
func (k *Kernel) PanicReason() *PanicReason { return k.panicked }

// Now returns the current virtual time — the kernel's gettimeofday.
func (k *Kernel) Now() sim.Time { return k.sim.Now() }

// ComputeTime reports the total core-nanoseconds consumed by the kernel's
// tasks, for utilization accounting.
func (k *Kernel) ComputeTime() time.Duration { return time.Duration(k.computeNS) }

// OnPanic registers a callback invoked when the kernel dies. Callbacks run
// in scheduler context and must not block.
func (k *Kernel) OnPanic(fn func(PanicReason)) { k.onPanic = append(k.onPanic, fn) }

// Instrument attaches an event scope to the kernel: panics and driver
// (re)loads — the two kernel-side landmarks of the failover timeline —
// are traced. A nil scope disables.
func (k *Kernel) Instrument(sc *obs.Scope) { k.sc = sc }

// Panic kills the kernel: every task dies immediately, as when a hardware
// fault halts the partition or a peer replica delivers a forcible IPI halt
// (§3.6). Panicking a dead kernel is a no-op.
func (k *Kernel) Panic(cause string, fault *hw.Fault) {
	if !k.alive {
		return
	}
	k.alive = false
	k.sc.EmitNote(obs.KernelPanic, 0, 0, 0, cause)
	k.panicked = &PanicReason{Time: k.sim.Now(), Cause: cause, Fault: fault}
	k.group.Kill()
	for _, t := range k.stackless {
		t.Kill()
	}
	for _, fn := range k.onPanic {
		fn(*k.panicked)
	}
}

// HandleFault processes a machine-check report for hardware this kernel
// owns, returning the outcome. Faults on other partitions are ignored
// (their error-reporting banks belong to the other kernel).
func (k *Kernel) HandleFault(f hw.Fault) kmem.Outcome {
	if !k.alive || !k.part.Owns(f.Node) {
		return kmem.OutcomeNone
	}
	switch f.Kind {
	case hw.CoreFailStop, hw.BusError:
		// A core fail-stop takes down the whole kernel (§2.3, Shalev et
		// al.); we treat a detected bus error the same way.
		k.Panic(f.Kind.String(), &f)
		return kmem.OutcomeKernelPanic
	case hw.MemUncorrected, hw.MemCorrected:
		return k.handleMemFault(f)
	case hw.CoherencyLoss:
		k.Panic(f.Kind.String(), &f)
		return kmem.OutcomeKernelPanic
	default:
		return kmem.OutcomeNone
	}
}

func (k *Kernel) handleMemFault(f hw.Fault) kmem.Outcome {
	// Convert the machine-wide address into a kernel-local offset by
	// position within the partition's nodes.
	perNode := k.part.Machine().Profile().MemPerNode
	local := int64(-1)
	for i, n := range k.part.Nodes() {
		lo := int64(n.ID) * perNode
		if f.Addr >= lo && f.Addr < lo+perNode {
			local = int64(i)*perNode + (f.Addr - lo)
			break
		}
	}
	if local < 0 {
		return kmem.OutcomeNone
	}
	class, err := k.mem.ClassifyAddr(local)
	if err != nil {
		return kmem.OutcomeNone
	}
	out := kmem.OutcomeOf(class, f.Kind == hw.MemCorrected)
	if out == kmem.OutcomeKernelPanic {
		k.Panic(fmt.Sprintf("uncorrected memory error in %v kernel memory", class), &f)
	}
	return out
}

// Package chaos drives deterministic fault-injection schedules against a
// replicated deployment: kernel kills through the hw machine-check path
// and shared-memory transfer faults (drop, duplicate, delay) through the
// messaging layer's chaos hook. A schedule is parsed from a compact spec
// string and replayed with a dedicated seeded RNG, so a run is a pure
// function of (workload seed, schedule, chaos seed) — the same property
// the record/replay engine itself is built on, which is what lets the
// rejoin tests assert byte-identical application output under injection.
//
// The fault matrix is validated at parse time, because the messaging
// faults must stay within what real hardware can produce without breaking
// the invariants the output-commit protocol relies on:
//
//   - delay: any channel. Delivery stays FIFO (the ring clamps delivery
//     times monotonically), modeling interconnect congestion.
//   - dup: ack and heart-beat channels only. Both are idempotent (acks
//     are cumulative maxima, beats are timestamps). Duplicating the det
//     log or the TCP sync stream would corrupt receipt watermarks: the
//     primary counts raw ring deliveries for output commit, and a
//     duplicated tuple would release output the backup never processed.
//   - drop: heart-beat channels only, modeling a stalled sender; enough
//     consecutive drops cause a spurious IPI halt and failover, which the
//     system must survive. Dropping log/ack/sync/bulk transfers would
//     violate the shared-memory model (§3.5): those losses only occur
//     with coherency faults, injected as kills with the coherency kind.
package chaos

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/shm"
	"repro/internal/sim"
)

// Target selects a kill victim by current role, not by partition: after a
// failover and rejoin the "primary" is whichever side records now.
type Target int

const (
	// TargetPrimary is the currently recording side.
	TargetPrimary Target = iota + 1
	// TargetBackup is any currently replaying (or resyncing) side — the
	// first live backup in slot order.
	TargetBackup
)

// TargetBackupSlot addresses the backup on a specific replica-set slot
// (k >= 1); the kill is skipped when no live backup holds that slot.
// Spelled `backup<k>` in schedule specs.
func TargetBackupSlot(k int) Target { return TargetBackup + Target(k) }

// BackupSlot decomposes a backup target: any=true for the plain
// TargetBackup (first live backup wins), otherwise the wanted slot.
func (t Target) BackupSlot() (slot int, any bool) {
	if t == TargetBackup {
		return 0, true
	}
	return int(t - TargetBackup), false
}

func (t Target) String() string {
	if t == TargetPrimary {
		return "primary"
	}
	if slot, any := t.BackupSlot(); !any {
		return fmt.Sprintf("backup%d", slot)
	}
	return "backup"
}

// Op is a shared-memory transfer fault operation.
type Op int

const (
	// OpDrop discards the transfer (the receiver never sees it).
	OpDrop Op = iota + 1
	// OpDup delivers extra copies of the transfer.
	OpDup
	// OpDelay adds delivery latency to the transfer.
	OpDelay
)

var opNames = map[Op]string{OpDrop: "drop", OpDup: "dup", OpDelay: "delay"}

func (o Op) String() string { return opNames[o] }

// Ring channel classes, matched by ring-name prefix so generation-suffixed
// rings created at rejoin inherit their channel's faults.
const (
	ClassLog  = "log"  // ftns.log*: deterministic-section tuples
	ClassAcks = "acks" // ftns.acks*: receipt acknowledgements
	ClassSync = "sync" // tcprep.sync*: logical TCP deltas
	ClassHB   = "hb"   // hb.*: heart-beats
	ClassBulk = "bulk" // rejoin.bulk*: checkpoint transfer
)

// ClassOf maps a ring name to its channel class ("" if unrecognized).
func ClassOf(name string) string {
	switch {
	case strings.HasPrefix(name, "ftns.log"):
		return ClassLog
	case strings.HasPrefix(name, "ftns.acks"):
		return ClassAcks
	case strings.HasPrefix(name, "tcprep.sync"):
		return ClassSync
	case strings.HasPrefix(name, "hb."):
		return ClassHB
	case strings.HasPrefix(name, "rejoin.bulk"):
		return ClassBulk
	}
	return ""
}

// Kill is one scheduled kernel kill, delivered as a hardware fault.
type Kill struct {
	At     time.Duration
	Target Target
	Fault  hw.FaultKind
}

// RingFault is one windowed transfer-fault rule on a channel class.
type RingFault struct {
	Op       Op
	Class    string
	From, To time.Duration // active window [From, To)
	Delay    time.Duration // OpDelay: added latency
	Count    int           // OpDup: extra copies
	Prob     float64       // OpDrop: per-transfer probability
	spec     string        // original event text, for traces
}

// Schedule is a parsed chaos schedule.
type Schedule struct {
	Kills []Kill
	Rings []RingFault
	src   string
}

// String returns the original spec the schedule was parsed from.
func (s Schedule) String() string { return s.src }

// Empty reports whether the schedule injects nothing.
func (s Schedule) Empty() bool { return len(s.Kills) == 0 && len(s.Rings) == 0 }

// Parse reads a chaos schedule spec: semicolon-separated events.
//
//	kill primary @2s              fail-stop the recording side at t=2s
//	kill backup @1s coherency     kill kinds: core, mem, bus, coherency
//	delay log 200us 0s..5s        +200µs per log transfer in [0s,5s)
//	dup acks x2 1s..4s            2 extra copies per ack transfer
//	drop hb p0.5 1s..2s           drop each beat with probability 0.5
//	drop hb 1s..1.2s              probability defaults to 1
//
// The fault matrix (package comment) is enforced here: invalid
// op/channel combinations are rejected, not silently ignored.
func Parse(spec string) (Schedule, error) {
	sched := Schedule{src: strings.TrimSpace(spec)}
	for _, ev := range strings.Split(spec, ";") {
		ev = strings.TrimSpace(ev)
		if ev == "" {
			continue
		}
		f := strings.Fields(ev)
		var err error
		if f[0] == "kill" {
			err = sched.parseKill(ev, f[1:])
		} else {
			err = sched.parseRingFault(ev, f)
		}
		if err != nil {
			return Schedule{}, err
		}
	}
	return sched, nil
}

// MustParse is Parse for schedules known valid at compile time.
func MustParse(spec string) Schedule {
	s, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return s
}

var killKinds = map[string]hw.FaultKind{
	"core":      hw.CoreFailStop,
	"mem":       hw.MemUncorrected,
	"bus":       hw.BusError,
	"coherency": hw.CoherencyLoss,
}

// ParseFaultKind maps a kill kind's name (core, mem, bus, coherency) to
// its hardware fault class — the one vocabulary for schedules and flags.
func ParseFaultKind(name string) (hw.FaultKind, error) {
	kind, ok := killKinds[name]
	if !ok {
		return 0, fmt.Errorf("unknown fault kind %q (core, mem, bus, coherency)", name)
	}
	return kind, nil
}

func (s *Schedule) parseKill(ev string, f []string) error {
	if len(f) < 2 || len(f) > 3 {
		return fmt.Errorf("chaos: %q: want `kill <primary|backup|backup<k>> @<time> [kind]`", ev)
	}
	k := Kill{Fault: hw.CoreFailStop}
	switch {
	case f[0] == "primary":
		k.Target = TargetPrimary
	case f[0] == "backup":
		k.Target = TargetBackup
	case strings.HasPrefix(f[0], "backup"):
		slot, err := strconv.Atoi(f[0][len("backup"):])
		if err != nil || slot < 1 {
			return fmt.Errorf("chaos: %q: bad backup slot in %q (want backup<k>, k >= 1)", ev, f[0])
		}
		k.Target = TargetBackupSlot(slot)
	default:
		return fmt.Errorf("chaos: %q: unknown kill target %q", ev, f[0])
	}
	if !strings.HasPrefix(f[1], "@") {
		return fmt.Errorf("chaos: %q: kill time must be `@<duration>`", ev)
	}
	at, err := time.ParseDuration(f[1][1:])
	if err != nil {
		return fmt.Errorf("chaos: %q: %v", ev, err)
	}
	k.At = at
	if len(f) == 3 {
		kind, err := ParseFaultKind(f[2])
		if err != nil {
			return fmt.Errorf("chaos: %q: %v", ev, err)
		}
		k.Fault = kind
	}
	s.Kills = append(s.Kills, k)
	return nil
}

// allowed is the op x channel fault matrix (package comment).
var allowed = map[Op]map[string]bool{
	OpDelay: {ClassLog: true, ClassAcks: true, ClassSync: true, ClassHB: true, ClassBulk: true},
	OpDup:   {ClassAcks: true, ClassHB: true},
	OpDrop:  {ClassHB: true},
}

func (s *Schedule) parseRingFault(ev string, f []string) error {
	var op Op
	switch f[0] {
	case "drop":
		op = OpDrop
	case "dup":
		op = OpDup
	case "delay":
		op = OpDelay
	default:
		return fmt.Errorf("chaos: %q: unknown event %q (kill, drop, dup, delay)", ev, f[0])
	}
	if len(f) < 3 {
		return fmt.Errorf("chaos: %q: want `%s <channel> [arg] <from>..<to>`", ev, f[0])
	}
	rf := RingFault{Op: op, Class: f[1], Count: 1, Prob: 1, spec: ev}
	switch rf.Class {
	case ClassLog, ClassAcks, ClassSync, ClassHB, ClassBulk:
	default:
		return fmt.Errorf("chaos: %q: unknown channel %q (log, acks, sync, hb, bulk)", ev, rf.Class)
	}
	if !allowed[op][rf.Class] {
		return fmt.Errorf("chaos: %q: %s is not injectable on the %s channel "+
			"(it would break a replication invariant; see the package fault matrix)",
			ev, op, rf.Class)
	}
	args := f[2 : len(f)-1]
	switch op {
	case OpDelay:
		if len(args) != 1 {
			return fmt.Errorf("chaos: %q: delay needs exactly one added-latency argument", ev)
		}
		d, err := time.ParseDuration(args[0])
		if err != nil || d <= 0 {
			return fmt.Errorf("chaos: %q: bad delay %q", ev, args[0])
		}
		rf.Delay = d
	case OpDup:
		if len(args) == 1 {
			if !strings.HasPrefix(args[0], "x") {
				return fmt.Errorf("chaos: %q: dup count must be `x<n>`", ev)
			}
			n, err := strconv.Atoi(args[0][1:])
			if err != nil || n < 1 {
				return fmt.Errorf("chaos: %q: bad dup count %q", ev, args[0])
			}
			rf.Count = n
		} else if len(args) != 0 {
			return fmt.Errorf("chaos: %q: dup takes at most a `x<n>` argument", ev)
		}
	case OpDrop:
		if len(args) == 1 {
			if !strings.HasPrefix(args[0], "p") {
				return fmt.Errorf("chaos: %q: drop probability must be `p<0..1>`", ev)
			}
			p, err := strconv.ParseFloat(args[0][1:], 64)
			if err != nil || p <= 0 || p > 1 {
				return fmt.Errorf("chaos: %q: bad drop probability %q", ev, args[0])
			}
			rf.Prob = p
		} else if len(args) != 0 {
			return fmt.Errorf("chaos: %q: drop takes at most a `p<prob>` argument", ev)
		}
	}
	from, to, ok := strings.Cut(f[len(f)-1], "..")
	if !ok {
		return fmt.Errorf("chaos: %q: window must be `<from>..<to>`", ev)
	}
	df, err1 := time.ParseDuration(from)
	dt, err2 := time.ParseDuration(to)
	if err1 != nil || err2 != nil || dt <= df {
		return fmt.Errorf("chaos: %q: bad window %q..%q", ev, from, to)
	}
	rf.From, rf.To = df, dt
	s.Rings = append(s.Rings, rf)
	return nil
}

// Env is what the injector needs from the system under test. Victim
// resolves a kill target to the NUMA node of the kernel currently holding
// that role (ok=false when no such kernel is alive — the kill is skipped,
// matching a fault striking already-dead hardware).
type Env struct {
	Sim     *sim.Simulation
	Machine *hw.Machine
	Victim  func(t Target) (node int, ok bool)
	Scope   *obs.Scope
}

// Injector replays one schedule against one deployment.
type Injector struct {
	sched Schedule
	env   Env
	rng   *rand.Rand

	// Injected counts transfer faults actually applied; Kills counts
	// kill events delivered.
	Injected int64
	Kills    int64
}

// NewInjector builds an injector with its own RNG stream, so probability
// draws never perturb the workload's deterministic randomness.
func NewInjector(sched Schedule, env Env, seed int64) *Injector {
	return &Injector{sched: sched, env: env, rng: rand.New(rand.NewSource(seed))}
}

// Schedule returns the injector's parsed schedule.
func (inj *Injector) Schedule() Schedule { return inj.sched }

// Start schedules every kill event. Ring faults need no scheduling: they
// are evaluated per transfer by the hooks ArmRing installs.
func (inj *Injector) Start() {
	for _, k := range inj.sched.Kills {
		k := k
		inj.env.Sim.Schedule(k.At, func() {
			node, ok := inj.env.Victim(k.Target)
			if !ok {
				inj.env.Scope.EmitNote(obs.ChaosInject, 0, inj.Kills, 0,
					fmt.Sprintf("kill %s: no live victim", k.Target))
				return
			}
			inj.Kills++
			inj.env.Scope.EmitNote(obs.ChaosInject, 0, inj.Kills, int64(node),
				fmt.Sprintf("kill %s (%s) node=%d", k.Target, k.Fault, node))
			inj.env.Machine.Inject(hw.Fault{Kind: k.Fault, Node: node, Core: -1, Addr: -1})
		})
	}
}

// ArmRing installs the transfer-fault hook on a ring if any rule targets
// its channel class. Call it for every ring at creation — including the
// generation-suffixed rings a rejoin creates, which inherit their class.
func (inj *Injector) ArmRing(r *shm.Ring) {
	class := ClassOf(r.Name())
	var rules []RingFault
	for _, rf := range inj.sched.Rings {
		if rf.Class == class {
			rules = append(rules, rf)
		}
	}
	if len(rules) == 0 {
		return
	}
	name := r.Name()
	r.SetChaosHook(func(msgs []shm.Message) shm.ChaosVerdict {
		var v shm.ChaosVerdict
		now := time.Duration(inj.env.Sim.Now())
		for _, rf := range rules {
			if now < rf.From || now >= rf.To {
				continue
			}
			hit := false
			switch rf.Op {
			case OpDelay:
				v.Delay += rf.Delay
				hit = true
			case OpDup:
				v.Dup += rf.Count
				hit = true
			case OpDrop:
				if rf.Prob >= 1 || inj.rng.Float64() < rf.Prob {
					v.Drop = true
					hit = true
				}
			}
			if hit {
				inj.Injected++
				inj.env.Scope.EmitNote(obs.ChaosInject, 0, inj.Injected,
					int64(len(msgs)), rf.spec+" on "+name)
			}
		}
		return v
	})
}

// Presets are named example schedules exercising the fault matrix; ftsim
// -chaos and the CI chaos-smoke job accept them by name.
var Presets = map[string]string{
	// One failover, then a second kill after the backup has rejoined.
	"kill-rejoin-kill": "kill primary @2s; kill primary @4m",
	// A heart-beat storm provoking a spurious-suspicion window before a
	// real failure. The first kill sits past the default repair delay so
	// that a storm-induced spurious failover has rejoined by then — a
	// kill inside the repair window would hit the sole survivor.
	"hb-storm": "drop hb p0.5 500ms..800ms; kill primary @15s; kill primary @4m30s",
	// Duplicated acks and congested log/sync channels around failover.
	"dup-delay": "dup acks x2 0s..10s; delay log 200us 1s..3s; delay sync 150us 1s..3s; kill primary @2500ms; kill primary @5m",
}

// Package chaos drives deterministic fault-injection schedules against a
// replicated deployment: kernel kills through the hw machine-check path,
// shared-memory transfer faults (drop, duplicate, delay) through the
// messaging layer's chaos hook, and tune events that perturb a backup's
// kernel at its boot. A schedule is parsed from a compact spec string; its
// probability draws come from the injector's own domain, "chaos", whose
// stream the simulation seed keys like every other domain's. So a run is a
// pure function of (simulation seed, schedule) — the same property the
// record/replay engine itself is built on, which is what lets the rejoin
// tests assert byte-identical application output under injection.
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
	"cmp"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
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

// Kill is one scheduled kernel kill, delivered as a hardware fault: at
// virtual time At or, with Class set, the instant the N-th transfer of that
// channel class lands at its receiver — a message boundary, counted over
// the whole run, every ring generation of the class included.
type Kill struct {
	At     time.Duration
	Class  string
	N      int
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

// Tune is one `tune backup<k> …` event: what the kernel on backup slot k
// boots with, at boot and at every rejoin of the slot — scheduling choices
// the det sections must make irrelevant, varied on purpose.
type Tune struct {
	Slot int
	Salt uint64 // folded into the key of the kernel's random stream (0: none)
	set  []func(*kernel.Config)
}

// Schedule is a parsed chaos schedule.
type Schedule struct {
	Kills []Kill
	Rings []RingFault
	Tunes []Tune
	src   string
	rest  []string // every event but the kills, as written
}

// Tuned returns kc with the schedule's tune events for slot applied, in
// order, and the salt the last of them sets (0: none).
func (s Schedule) Tuned(slot int, kc kernel.Config) (kernel.Config, uint64) {
	var salt uint64
	for _, t := range s.Tunes {
		if t.Slot != slot {
			continue
		}
		for _, set := range t.set {
			set(&kc)
		}
		salt = cmp.Or(t.Salt, salt)
	}
	return kc, salt
}

// Boot boots kc on part as replica slot's kernel, tuned (Tuned) and with
// its random stream salted: at a deployment's boot and at every rejoin.
func (s Schedule) Boot(part *hw.Partition, slot int, kc kernel.Config) (*kernel.Kernel, error) {
	kc, salt := s.Tuned(slot, kc)
	k, err := kernel.Boot(part, kc)
	if err == nil {
		k.Domain().Salt(salt)
	}
	return k, err
}

// String returns the original spec the schedule was parsed from.
func (s Schedule) String() string { return s.src }

// WithoutKills returns the spec less its kill events: what a never-failed
// twin of the run injects.
func (s Schedule) WithoutKills() string { return strings.Join(s.rest, "; ") }

// Empty reports whether the schedule injects nothing (a tune injects no
// fault).
func (s Schedule) Empty() bool { return len(s.Kills) == 0 && len(s.Rings) == 0 }

// Parse reads a chaos schedule spec, or the name of one of Presets:
// semicolon-separated events.
//
//	kill primary @2s              fail-stop the recording side at t=2s
//	kill backup @1s coherency     kill kinds: core, mem, bus, coherency
//	kill primary @log#3           as the 3rd log transfer lands (log, acks, sync, bulk)
//	delay log 200us 0s..5s        +200µs per log transfer in [0s,5s)
//	dup acks x2 1s..4s            2 extra copies per ack transfer
//	drop hb p0.5 1s..2s           drop each beat with probability 0.5
//	drop hb 1s..1.2s              probability defaults to 1
//	tune backup1 preempt 0.3 cs 3us wake 4us idle 50us..15ms cores 24 salt 9
//	                              backup slot 1's kernel: its wake-preemption
//	                              probability, context-switch and wake costs,
//	                              idle-wake penalty bounds, cores (within its
//	                              partition) and a salt folded into its random
//	                              stream's key; any subset, at boot and rejoin
//
// The fault matrix (package comment) is enforced here: invalid
// op/channel combinations are rejected, not silently ignored.
func Parse(spec string) (Schedule, error) {
	if preset, ok := Presets[spec]; ok {
		spec = preset
	}
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
		} else if f[0] == "tune" {
			err = sched.parseTune(ev, f[1:])
		} else {
			err = sched.parseRingFault(ev, f)
		}
		if err != nil {
			return Schedule{}, err
		}
		if f[0] != "kill" {
			sched.rest = append(sched.rest, strings.Join(f, " "))
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

func (s *Schedule) parseKill(ev string, f []string) error {
	if len(f) < 2 || len(f) > 3 {
		return fmt.Errorf("chaos: %q: want `kill <primary|backup|backup<k>> @<time>|@<class>#<n> [kind]`", ev)
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
		return fmt.Errorf("chaos: %q: kill time must be `@<duration>` or `@<class>#<n>`", ev)
	}
	var err error
	if class, n, ok := strings.Cut(f[1][1:], "#"); ok {
		switch class {
		case ClassLog, ClassAcks, ClassSync, ClassBulk:
		default:
			return fmt.Errorf("chaos: %q: no message-boundary kills on channel %q (log, acks, sync, bulk)", ev, class)
		}
		if k.N, err = strconv.Atoi(n); err != nil || k.N < 1 {
			return fmt.Errorf("chaos: %q: bad transfer count %q (want n >= 1)", ev, n)
		}
		k.Class = class
	} else if k.At, err = time.ParseDuration(f[1][1:]); err != nil {
		return fmt.Errorf("chaos: %q: %v", ev, err)
	}
	if len(f) == 3 {
		kind, ok := killKinds[f[2]]
		if !ok {
			return fmt.Errorf("chaos: %q: unknown fault kind %q (core, mem, bus, coherency)", ev, f[2])
		}
		k.Fault = kind
	}
	s.Kills = append(s.Kills, k)
	return nil
}

func (s *Schedule) parseTune(ev string, f []string) error {
	slot, err := strconv.Atoi(strings.TrimPrefix(f[0], "backup"))
	if len(f) < 3 || len(f)%2 == 0 || !strings.HasPrefix(f[0], "backup") || err != nil || slot < 1 {
		return fmt.Errorf("chaos: %q: want `tune backup<k> [preempt <p>] [cs <d>] [wake <d>] [idle <d>..<d>] [cores <n>] [salt <n>]`", ev)
	}
	t := Tune{Slot: slot}
	for i := 1; i < len(f); i += 2 {
		v := f[i+1]
		var set func(*kernel.Config)
		switch f[i] {
		case "preempt":
			p, e := strconv.ParseFloat(v, 64)
			err = cmp.Or(e, bound(p >= 0 && p <= 1))
			set = func(c *kernel.Config) { c.Params.WakePreemptProb = p }
		case "cs", "wake":
			d, e := time.ParseDuration(v)
			err = cmp.Or(e, bound(d >= 0))
			if set = func(c *kernel.Config) { c.Params.WakeBase = d }; f[i] == "cs" {
				set = func(c *kernel.Config) { c.Params.ContextSwitch = d }
			}
		case "idle":
			lo, hi, _ := strings.Cut(v, "..")
			a, e1 := time.ParseDuration(lo)
			b, e2 := time.ParseDuration(hi)
			err = cmp.Or(e1, e2, bound(a >= 0 && b >= a))
			set = func(c *kernel.Config) { c.Params.IdleWakeMin, c.Params.IdleWakeMax = a, b }
		case "cores":
			n, e := strconv.Atoi(v)
			err = cmp.Or(e, bound(n >= 1))
			set = func(c *kernel.Config) { c.Cores = n }
		case "salt":
			t.Salt, err = strconv.ParseUint(v, 10, 64)
			set = func(*kernel.Config) {}
		default:
			return fmt.Errorf("chaos: %q: unknown tune %q (preempt, cs, wake, idle, cores, salt)", ev, f[i])
		}
		if err != nil {
			return fmt.Errorf("chaos: %q: bad %s %q", ev, f[i], v)
		}
		t.set = append(t.set, set)
	}
	s.Tunes = append(s.Tunes, t)
	return nil
}

// bound is an error unless ok: a tune value out of its range.
func bound(ok bool) error {
	if ok {
		return nil
	}
	return errors.New("out of range")
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

	landed []int // per kill: the transfers of its class landed so far
}

// NewInjector builds an injector that draws from a domain of its own,
// "chaos", so its probability draws never perturb a kernel's.
func NewInjector(sched Schedule, env Env) *Injector {
	return &Injector{sched: sched, env: env, rng: env.Sim.NewGroup("chaos").Rand(), landed: make([]int, len(sched.Kills))}
}

// Start schedules every timed kill. Message-boundary kills and ring faults
// need no scheduling: the hooks ArmRing installs evaluate them per
// transfer.
func (inj *Injector) Start() {
	for _, k := range inj.sched.Kills {
		if k.Class == "" {
			inj.env.Sim.Schedule(k.At, func() { inj.kill(k) })
		}
	}
}

// kill delivers one kill to its target's current holder, if any.
func (inj *Injector) kill(k Kill) {
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
}

// ArmRing installs the hooks a ring's channel class needs: a delivery
// count for each message-boundary kill on the class, and the
// transfer-fault hook if any rule targets it. Call it for every ring at
// creation — including the generation-suffixed rings a rejoin creates,
// which inherit their class.
func (inj *Injector) ArmRing(r *shm.Ring) {
	class := ClassOf(r.Name())
	for i, k := range inj.sched.Kills {
		if k.Class != "" && k.Class == class {
			r.OnDelivered(func() {
				if inj.landed[i]++; inj.landed[i] == k.N {
					inj.kill(k)
				}
			})
		}
	}
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

// Presets are named example schedules exercising the fault matrix; Parse
// accepts them by name, so a scenario's Chaos field can name one.
var Presets = map[string]string{
	// One failover, then a second kill after the backup has rejoined.
	"kill-rejoin-kill": "kill primary @2s; kill primary @4m",
	// A heart-beat storm provoking a spurious suspicion before a real
	// failure: inside the lossy stretch every beat is lost for 70 ms, longer
	// than the detector's 50 ms timeout, so the suspicion does not hang on
	// the drop draws. The first kill sits past the default repair delay so
	// that the spurious failover has rejoined by then — a kill inside the
	// repair window would hit the sole survivor.
	"hb-storm": "drop hb p0.5 500ms..800ms; drop hb 600ms..670ms; kill primary @15s; kill primary @4m30s",
	// Duplicated acks and congested log/sync channels around failover.
	"dup-delay": "dup acks x2 0s..10s; delay log 200us 1s..3s; delay sync 150us 1s..3s; kill primary @2500ms; kill primary @5m",
}

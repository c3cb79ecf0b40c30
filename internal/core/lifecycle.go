package core

import (
	"cmp"
	"errors"
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// LifecycleState is the deployment's replication lifecycle. It replaces
// the ad-hoc booleans callers used to poke at (failure.Detector.Fired,
// Namespace role checks): one state machine, observable in one place,
// with every transition traced as an obs.StateChange event.
type LifecycleState int

const (
	// StateReplicated: the recording side streams to a live, caught-up
	// backup; output commit is in force.
	StateReplicated LifecycleState = iota + 1
	// StateDegraded: one side serves alone, recording into the retained
	// history (vacuous output stability) until a repaired partition
	// rejoins.
	StateDegraded
	// StateResyncing: a freshly booted backup is being re-integrated —
	// checkpoint transfer and catch-up replay are in progress while the
	// recording side keeps serving.
	StateResyncing
	// StateFailed: no kernel can serve (double fault, or the survivor
	// died during failover).
	StateFailed
)

var stateNames = [...]string{StateReplicated: "replicated", StateDegraded: "degraded", StateResyncing: "resyncing", StateFailed: "failed"}

func (s LifecycleState) String() string {
	if s < StateReplicated || s > StateFailed {
		return "boot"
	}
	return stateNames[s]
}

// Typed lifecycle errors. Callers branch with errors.Is instead of
// comparing strings or reading component internals.
var (
	// ErrDegraded reports the system is serving below full replica-set
	// strength.
	ErrDegraded = errors.New("core: system degraded (replica set below full strength)")
	// ErrQuorumLost reports live backups have fallen below the configured
	// output-commit quorum: the recorder releases output on all-of-the-
	// living receipts instead. It wraps ErrDegraded, so errors.Is checks
	// against either sentinel match.
	ErrQuorumLost = fmt.Errorf("core: output-commit quorum lost (%w)", ErrDegraded)
	// ErrReplicaRetired reports an operation on a backup already removed
	// from the replica set (an election loser or a completed rolling
	// replacement).
	ErrReplicaRetired = errors.New("core: replica retired")
	// ErrResyncInProgress reports a backup re-integration is already
	// running.
	ErrResyncInProgress = errors.New("core: resync already in progress")
	// ErrFailed reports no replica can serve.
	ErrFailed = errors.New("core: system failed (no live replica)")
)

// HangError is Wait's error for a run that went quiet while an app main on
// a live replica had not returned: the foreground processes left, each
// with what it waits on (a condition variable by id, "sleep", "wait" for
// any other wait queue, "runnable").
type HangError struct {
	At    sim.Time
	Stuck []string // "<process>: <what it waits on>"
}

func (e *HangError) Error() string {
	return fmt.Sprintf("core: hang at %v: an app main has not returned; stuck: %s", e.At, strings.Join(e.Stuck, "; "))
}

// Wait runs the deployment until it is quiet (Sim.Run). It returns a
// *HangError if an app main on a live replica has not returned while
// foreground processes other than parked spill servers are left.
func (sys *System) Wait() error {
	if err := sys.Sim.Run(); err != nil {
		return err
	}
	mains, on := 0, make(map[*sim.Proc]string)
	for _, rep := range sys.members() {
		mains += rep.mains
		for _, c := range rep.NS.Lib().Conds() {
			for _, t := range c.Queued() {
				on[t.Proc()] = fmt.Sprintf("cond %d", c.ID())
			}
		}
	}
	var stuck []string
	for p := range sys.Sim.Procs() {
		if why := cmp.Or(on[p], p.Blocked(), "runnable"); mains > 0 && !p.Background() && (why != "wait" || !strings.Contains(p.Name(), "-spill.")) {
			stuck = append(stuck, p.Name()+": "+why)
		}
	}
	if len(stuck) == 0 {
		return nil
	}
	return &HangError{At: sys.Sim.Now(), Stuck: stuck}
}

// State returns the current lifecycle state. A dead active side whose
// failure has not yet been detected still reports the pre-failure state —
// detection latency is part of what the model measures — except when no
// replica is left at all.
func (sys *System) State() LifecycleState {
	activeDead := sys.active == nil || !sys.active.Kernel.Alive()
	if activeDead && len(sys.livePassives()) == 0 {
		return StateFailed
	}
	return sys.state
}

// Healthy returns nil when the replica set is at full strength, or the
// typed error for the current lifecycle state. Below the commit quorum
// (but with backups still live) the more specific ErrQuorumLost is
// returned; it wraps ErrDegraded.
func (sys *System) Healthy() error {
	switch sys.State() {
	case StateReplicated:
		return nil
	case StateResyncing:
		return ErrResyncInProgress
	case StateFailed:
		return ErrFailed
	default:
		if live := len(sys.livePassives()); live > 0 && live < sys.Cfg.Quorum-1 {
			return ErrQuorumLost
		}
		return ErrDegraded
	}
}

// Active returns the replica currently recording (or serving live).
// After failover and rejoin cycles this may be either partition's
// replica; sys.Primary/sys.Secondary keep naming the boot-time sides.
func (sys *System) Active() *Replica { return sys.active }

// Standby returns the first current backup replica — replaying or
// resyncing — or nil while degraded. With a larger replica set, Backups
// returns all of them.
func (sys *System) Standby() *Replica {
	if len(sys.passives) == 0 {
		return nil
	}
	return sys.passives[0]
}

// Generation counts completed-or-started rejoin cycles (0 = the
// boot-time pairing).
func (sys *System) Generation() int { return sys.generation }

// RejoinErr returns the last rejoin failure (for example a wrapped
// rejoin.ErrChecksumMismatch), or nil.
func (sys *System) RejoinErr() error { return sys.rejoinErr }

// setState moves the lifecycle state machine, tracing the transition.
func (sys *System) setState(st LifecycleState) {
	if st == sys.state {
		return
	}
	old := sys.state
	sys.state = st
	sys.scLife.EmitNote(obs.StateChange, 0, int64(st), int64(old),
		fmt.Sprintf("%s -> %s", old, st))
}

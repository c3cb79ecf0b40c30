// Package failure implements FT-Linux's failure detection (§3.6): each
// replica periodically sends a heart-beat message to the other over the
// shared-memory mailbox; missing heart-beats past a configurable timeout
// make the peer suspected, at which point the detector fires an
// inter-processor interrupt that forcibly halts the suspect (so a replica
// that was merely slow cannot come back and contend), then reports the
// failure. Hardware machine-check reports (MCA/AER) short-circuit the
// timeout: a detected fault on the peer's partition triggers failover
// immediately. Sender and monitor are background events of the kernel's
// domain, drawing where the tasks they replaced did (DESIGN.md §19).
package failure

import (
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/shm"
	"repro/internal/sim"
)

// Config tunes the detector: Interval between heart-beats, Timeout without
// one before the peer is suspected.
type Config struct{ Interval, Timeout time.Duration }

// DefaultConfig returns the paper-scale heart-beat configuration.
func DefaultConfig() Config {
	return Config{Interval: 10 * time.Millisecond, Timeout: 50 * time.Millisecond} // §3.6: model choices, five beats missed
}

// Detector watches one peer replica from one kernel.
type Detector struct {
	kern, peer *kernel.Kernel
	out, in    *shm.Ring // our heart-beats to the peer, the peer's to us
	cfg        Config

	onFail []func()
	fired  bool
	sc     *obs.Scope

	// The sender's beat; the monitor's wake-up (the in ring's receiver
	// event) and the timer that ends its wait, timedOut if it did.
	beat, wake, timer sim.Event
	timedOut          bool

	// Beats counts heart-beats received, IPIs the forcible halts sent.
	Beats, IPIs int64
}

// New creates (but does not start) a detector on kern watching peer.
func New(kern, peer *kernel.Kernel, out, in *shm.Ring, cfg Config) *Detector {
	if cfg.Interval == 0 {
		cfg = DefaultConfig()
	}
	d := &Detector{kern: kern, peer: peer, out: out, in: in, cfg: cfg}
	d.beat.Init(kern.Domain(), d.send)
	d.wake.Init(kern.Domain(), d.monitor)
	d.timer.Init(kern.Domain(), func() {
		if d.timedOut = !d.wake.Armed(); d.timedOut { // else a delivery ended the wait first
			d.wake.Reset(0)
		}
	})
	return d
}

// OnFail registers a callback fired (once) when the peer is declared
// failed. Callbacks run in task context and may block.
func (d *Detector) OnFail(fn func()) { d.onFail = append(d.onFail, fn) }

// Instrument traces received beats, the miss, the IPI halt and the failover
// trigger (§4.4's detection half) on sc. Nil disables.
func (d *Detector) Instrument(sc *obs.Scope) { d.sc = sc }

// Start launches the sender and the monitor, each first firing (foreground)
// where its task first ran, and subscribes to the peer's machine checks.
func (d *Detector) Start() {
	d.kern.SkipTIDs(2)
	d.beat.Reset(0)
	d.wake.Reset(0)
	d.beat.SetBackground(true) // and, by it, the beats' deliveries
	d.wake.SetBackground(true) // and, by it, the timer
	d.in.OnReceive(&d.wake)
	d.kern.Partition().Machine().OnFault(func(f hw.Fault) {
		// Fail over at once on a fault of the peer's hardware, unless it is
		// correctable or a DUE the peer survived: heart-beats judge those.
		if d.kern.Alive() && d.peer.Partition().Owns(f.Node) && f.Kind != hw.MemCorrected &&
			(f.Kind != hw.MemUncorrected || !d.peer.Alive()) {
			d.declareFailed()
		}
	})
}

// send beats every Interval until the detector fires.
func (d *Detector) send() {
	if !d.fired {
		d.out.TrySend(shm.Message{Kind: 1, Size: 16, W: [7]uint64{uint64(d.kern.Sim().Now())}})
		d.beat.Reset(d.cfg.Interval)
	}
}

// monitor runs where a task in the in ring's RecvTimeout would resume: it
// counts the beats delivered and waits Timeout for the next. A wait that
// timed out with none ends it, halting the peer via IPI in case it is only
// slow and declaring it failed unless the detector already fired.
func (d *Detector) monitor() {
	for ; d.in.Len() > 0; d.timedOut = false {
		d.in.TryRecv()
		d.Beats++
		d.sc.Emit(obs.Heartbeat, 0, d.Beats, 0)
	}
	if !d.timedOut {
		d.timer.Reset(d.cfg.Timeout)
	} else if d.in.OnReceive(nil); !d.fired {
		d.sc.Emit(obs.HeartbeatMiss, 0, d.Beats, int64(d.cfg.Timeout))
		d.declareFailed()
	}
}

// declareFailed forcibly halts the peer (IPI, §3.6) and fires callbacks.
func (d *Detector) declareFailed() {
	if d.fired {
		return
	}
	d.fired = true
	d.sc.Emit(obs.Suspect, 0, d.Beats, 0)
	if d.peer.Alive() {
		d.IPIs++
		d.sc.Emit(obs.IPIHalt, 0, 0, 0)
		d.peer.Panic("forcibly halted by peer IPI (suspected failed)", nil)
	}
	d.sc.Emit(obs.FailoverStart, 0, 0, 0)
	fns := d.onFail
	d.kern.Spawn("failover", func(t *kernel.Task) {
		for _, fn := range fns {
			fn()
		}
	})
}

// Fired reports whether this detector has declared its peer failed, on a
// heart-beat time-out or a fatal machine check, for this pairing and
// generation; it never resets (core.System.State reports the deployment's).
func (d *Detector) Fired() bool { return d.fired }

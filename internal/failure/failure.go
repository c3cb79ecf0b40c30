// Package failure implements FT-Linux's failure detection (§3.6): each
// replica periodically sends a heart-beat message to the other over the
// shared-memory mailbox; missing heart-beats past a configurable timeout
// make the peer suspected, at which point the detector fires an
// inter-processor interrupt that forcibly halts the suspect (so a replica
// that was merely slow cannot come back and contend), then reports the
// failure. Hardware machine-check reports (MCA/AER) short-circuit the
// timeout: a detected fault on the peer's partition triggers failover
// immediately.
package failure

import (
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/shm"
)

// Config tunes the detector.
type Config struct {
	// Interval between heart-beats.
	Interval time.Duration
	// Timeout without heart-beats before the peer is suspected.
	Timeout time.Duration
}

// DefaultConfig returns the paper-scale heart-beat configuration.
func DefaultConfig() Config {
	return Config{Interval: 10 * time.Millisecond, Timeout: 50 * time.Millisecond}
}

// Detector watches one peer replica from one kernel.
type Detector struct {
	kern *kernel.Kernel
	peer *kernel.Kernel
	out  *shm.Ring // our heart-beats to the peer
	in   *shm.Ring // the peer's heart-beats to us
	cfg  Config

	onFail []func()
	fired  bool
	sc     *obs.Scope

	// Beats counts heart-beats received, IPIs the forcible halts sent.
	Beats, IPIs int64
}

// New creates (but does not start) a detector on kern watching peer.
func New(kern, peer *kernel.Kernel, out, in *shm.Ring, cfg Config) *Detector {
	if cfg.Interval == 0 {
		cfg = DefaultConfig()
	}
	return &Detector{kern: kern, peer: peer, out: out, in: in, cfg: cfg}
}

// OnFail registers a callback fired (once) when the peer is declared
// failed. Callbacks run in task context and may block.
func (d *Detector) OnFail(fn func()) { d.onFail = append(d.onFail, fn) }

// Instrument attaches an event scope: received beats, the miss that
// starts suspicion, the IPI halt, and the failover trigger are traced —
// the §4.4 detection half of the failover timeline. Nil disables.
func (d *Detector) Instrument(sc *obs.Scope) { d.sc = sc }

// Start launches the sender and monitor tasks, background work that never
// stops, and subscribes to machine-check reports for the peer's partition.
func (d *Detector) Start() {
	d.kern.Spawn("hb-send", d.sendLoop)
	d.kern.Spawn("hb-monitor", d.monitorLoop)
	d.kern.Partition().Machine().OnFault(func(f hw.Fault) {
		// MCA report for hardware the peer owns: fail over immediately
		// rather than waiting out the heart-beat timeout.
		if !d.kern.Alive() || d.fired || !d.peer.Partition().Owns(f.Node) {
			return
		}
		if f.Kind == hw.MemCorrected {
			return // correctable: the peer handles it and lives
		}
		if f.Kind == hw.MemUncorrected && d.peer.Alive() {
			// A DUE is fatal to the peer only if it struck kernel memory;
			// if the peer survived, keep relying on heart-beats.
			return
		}
		d.declareFailed()
	})
}

func (d *Detector) sendLoop(t *kernel.Task) {
	t.Proc().SetBackground(true)
	for d.kern.Alive() {
		d.out.TrySend(shm.Message{Kind: 1, Size: 16, W: [7]uint64{uint64(t.Now())}})
		t.Sleep(d.cfg.Interval)
	}
}

func (d *Detector) monitorLoop(t *kernel.Task) {
	t.Proc().SetBackground(true)
	for {
		if _, ok := d.in.RecvTimeout(t.Proc(), d.cfg.Timeout); ok {
			d.Beats++
			d.sc.Emit(obs.Heartbeat, 0, d.Beats, 0)
			continue
		}
		if d.fired {
			return
		}
		// No heart-beat within the timeout: halt the peer via IPI in case
		// it is only slow, then declare it failed.
		d.sc.Emit(obs.HeartbeatMiss, 0, d.Beats, int64(d.cfg.Timeout))
		d.declareFailed()
		return
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

// Fired reports whether this detector has declared its peer failed — on a
// heart-beat timeout or a fatal machine-check report for the peer's
// hardware — halting the peer if it still ran and starting failover. It
// never resets. A detector watches one pairing for one generation; whether
// the deployment as a whole is degraded is core.System.State's to report.
func (d *Detector) Fired() bool { return d.fired }

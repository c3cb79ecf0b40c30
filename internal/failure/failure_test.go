package failure_test

import (
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/shm"
	"repro/internal/sim"
)

type pair struct {
	sim      *sim.Simulation
	mach     *hw.Machine
	pk, sk   *kernel.Kernel
	pd, sd   *failure.Detector
	toS, toP *shm.Ring // the primary's heart-beats, the secondary's
	tr       *obs.Tracer
}

func newPair(t *testing.T, cfg failure.Config) *pair { return newPairWith(t, cfg, false) }

// newPairWith is newPair with the detectors' events traced if traced.
func newPairWith(t *testing.T, cfg failure.Config, traced bool) *pair {
	t.Helper()
	s := sim.New(1)
	var tr *obs.Tracer
	if traced {
		tr = obs.New(s, obs.Config{Trace: true})
	}
	m := hw.New(s, hw.Opteron6376x4())
	pp, _ := m.NewPartition("p", 0, 1, 2, 3)
	sp, _ := m.NewPartition("s", 4, 5, 6, 7)
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	pk, err := kernel.Boot(pp, kernel.Config{Name: "primary", Params: kp})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := kernel.Boot(sp, kernel.Config{Name: "secondary", Params: kp})
	if err != nil {
		t.Fatal(err)
	}
	fabric := shm.NewFabric(s, pp.CrossLatency(sp))
	ps := fabric.NewRing("hb.ps", 0, 16<<10)
	sp2 := fabric.NewRing("hb.sp", 1, 16<<10)
	pd := failure.New(pk, sk, ps, sp2, cfg)
	sd := failure.New(sk, pk, sp2, ps, cfg)
	pd.Instrument(tr.Scope("primary/detector"))
	sd.Instrument(tr.Scope("secondary/detector"))
	m.OnFault(func(f hw.Fault) { pk.HandleFault(f) })
	m.OnFault(func(f hw.Fault) { sk.HandleFault(f) })
	pd.Start()
	sd.Start()
	return &pair{sim: s, mach: m, pk: pk, sk: sk, pd: pd, sd: sd, toS: ps, toP: sp2, tr: tr}
}

func TestNoFalsePositives(t *testing.T) {
	p := newPair(t, failure.DefaultConfig())
	if err := p.sim.RunUntil(sim.Time(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if p.pd.Fired() || p.sd.Fired() {
		t.Error("detector fired with both replicas healthy")
	}
	if p.pd.Beats < 400 || p.sd.Beats < 400 {
		t.Errorf("beats = %d/%d, expected ~500 over 5s at 10ms interval", p.pd.Beats, p.sd.Beats)
	}
}

func TestDetectsDeathWithinTimeout(t *testing.T) {
	p := newPair(t, failure.DefaultConfig())
	var failedAt sim.Time
	p.sd.OnFail(func() { failedAt = p.sim.Now() })
	p.sim.Schedule(time.Second, func() { p.pk.Panic("injected", nil) })
	if err := p.sim.RunUntil(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !p.sd.Fired() {
		t.Fatal("secondary's detector never fired")
	}
	detect := failedAt.Sub(sim.Time(time.Second))
	cfg := failure.DefaultConfig()
	if detect <= 0 || detect > cfg.Timeout+cfg.Interval {
		t.Errorf("detection latency %v, want within %v", detect, cfg.Timeout+cfg.Interval)
	}
	if p.pd.Fired() {
		t.Error("dead primary's detector fired")
	}
}

// TestNoBeatAfterFiring: a detector that has fired sends its halted peer
// no further heart-beat.
func TestNoBeatAfterFiring(t *testing.T) {
	p := newPair(t, failure.DefaultConfig())
	var sent int64 = -1
	p.sd.OnFail(func() { sent = p.toP.Stats().Messages })
	p.sim.Schedule(time.Second, func() { p.pk.Panic("injected", nil) })
	if err := p.sim.RunUntil(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if sent < 90 {
		t.Fatalf("the secondary sent %d beats before firing, want ~100", sent)
	}
	if got := p.toP.Stats().Messages; got != sent {
		t.Errorf("the secondary sent %d beats after firing, want none", got-sent)
	}
}

func TestMCAShortCircuitsTimeout(t *testing.T) {
	p := newPair(t, failure.DefaultConfig())
	var failedAt sim.Time
	p.sd.OnFail(func() { failedAt = p.sim.Now() })
	// A core fail-stop on the primary's partition is MCA-reported: the
	// secondary must not wait out the heart-beat timeout.
	p.mach.InjectAfter(time.Second, hw.Fault{Kind: hw.CoreFailStop, Node: 0, Core: 1, Addr: -1})
	if err := p.sim.RunUntil(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !p.sd.Fired() {
		t.Fatal("MCA report did not trigger failover")
	}
	if detect := failedAt.Sub(sim.Time(time.Second)); detect > 10*time.Millisecond {
		t.Errorf("MCA-triggered detection took %v, want immediate", detect)
	}
}

// TestIPIHaltsSlowPeer: a primary that hangs — its domain stops, heart-beat
// sender and all, and no machine check is raised — is still alive when the
// secondary's timeout suspects it, which halts it by IPI within the timeout
// plus one interval of the hang; its own detector never fires.
func TestIPIHaltsSlowPeer(t *testing.T) {
	cfg := failure.DefaultConfig()
	p := newPair(t, cfg)
	var failedAt sim.Time
	aliveAtSuspicion := false
	p.sd.OnFail(func() { failedAt = p.sim.Now() })
	p.sim.Schedule(time.Second, p.pk.Domain().Hang)
	p.sim.Schedule(time.Second+cfg.Timeout-cfg.Interval, func() { aliveAtSuspicion = p.pk.Alive() })
	if err := p.sim.RunUntil(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !p.sd.Fired() || !aliveAtSuspicion {
		t.Fatalf("hung peer detected %v, alive until its timeout %v; want both", p.sd.Fired(), aliveAtSuspicion)
	}
	if r := p.pk.PanicReason(); r == nil || r.Fault != nil || p.sd.IPIs != 1 || p.pd.Fired() {
		t.Errorf("the hung peer died of %+v after %d IPIs, its detector fired %v; want one IPI halt and no firing", r, p.sd.IPIs, p.pd.Fired())
	}
	if detect := failedAt.Sub(sim.Time(time.Second)); detect <= 0 || detect > cfg.Timeout+cfg.Interval {
		t.Errorf("detection latency %v, want within (0, %v]", detect, cfg.Timeout+cfg.Interval)
	}
}

package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestTuneAppliesAtBootAndRejoin: a chaos tune event perturbs backup slot
// 1's kernel at boot and again when the slot rejoins after its kill — its
// wake preemption, switch and wake costs, idle-wake bounds and core count,
// and at boot its stream salt — while the primary keeps the configured
// kernel. The perturbed replica replays without a divergence, and the
// client sees the stream of an untuned run.
func TestTuneAppliesAtBootAndRejoin(t *testing.T) {
	t.Parallel()
	const tune = "tune backup1 preempt 0.3 cs 3us wake 4us idle 50us..15ms cores 24 salt 9"
	check := func(when string, rep *core.Replica) {
		t.Helper()
		p := rep.Kernel.Params()
		if p.WakePreemptProb != 0.3 || p.ContextSwitch != 3*time.Microsecond || p.WakeBase != 4*time.Microsecond ||
			p.IdleWakeMin != 50*time.Microsecond || p.IdleWakeMax != 15*time.Millisecond || rep.Kernel.Cores() != 24 {
			t.Errorf("%s: %s boots %d cores with %+v, want the tuned kernel", when, rep.Kernel.Name(), rep.Kernel.Cores(), p)
		}
	}
	_, want, _ := rejoinRun(t, "", 1, plainStream, 1<<20)
	sys := quietSystem(t, 1, withChaos(tune))
	check("at boot", sys.Secondary)
	k := sys.Secondary.Kernel
	if k.Domain().Rand().Uint64() == sim.New(1).NewGroup(k.Name()).Rand().Uint64() {
		t.Errorf("%s draws its unsalted stream, want salt 9 folded in", k.Name())
	}
	if p := sys.Primary.Kernel.Params(); p != quietParams() || sys.Primary.Kernel.Cores() != 32 {
		t.Errorf("the primary boots %d cores with %+v, want the configured kernel", sys.Primary.Kernel.Cores(), p)
	}
	sys, got, _ := rejoinRun(t, tune+"; kill backup1 @100ms", 1, plainStream, 1<<20)
	if got != want {
		t.Errorf("the client's stream hashes to %x, the untuned run's to %x", got, want)
	}
	if sys.Generation() != 1 || len(sys.Backups()) != 1 {
		t.Fatalf("generation %d with %d backups, want the slot rejoined once", sys.Generation(), len(sys.Backups()))
	}
	check("at rejoin", sys.Backups()[0])
	if d := sys.Backups()[0].NS.Stats().Divergences; d != 0 {
		t.Errorf("%d divergences on the tuned backup", d)
	}
}

package chaos_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/hw"
	"repro/internal/shm"
	"repro/internal/sim"
)

func TestParseKills(t *testing.T) {
	s, err := chaos.Parse("kill primary @2s; kill backup @1500ms coherency")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(s.Kills) != 2 || len(s.Rings) != 0 {
		t.Fatalf("parsed %d kills, %d ring faults", len(s.Kills), len(s.Rings))
	}
	k := s.Kills[0]
	if k.Target != chaos.TargetPrimary || k.At != 2*time.Second || k.Fault != hw.CoreFailStop {
		t.Errorf("kill[0] = %+v, want primary @2s core", k)
	}
	k = s.Kills[1]
	if k.Target != chaos.TargetBackup || k.At != 1500*time.Millisecond || k.Fault != hw.CoherencyLoss {
		t.Errorf("kill[1] = %+v, want backup @1.5s coherency", k)
	}
}

func TestParseRingFaults(t *testing.T) {
	s, err := chaos.Parse("delay log 200us 0s..5s; dup acks x2 1s..4s; drop hb p0.5 1s..2s; drop hb 1s..1200ms")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(s.Rings) != 4 {
		t.Fatalf("parsed %d ring faults, want 4", len(s.Rings))
	}
	r := s.Rings[0]
	if r.Op != chaos.OpDelay || r.Class != chaos.ClassLog || r.Delay != 200*time.Microsecond ||
		r.From != 0 || r.To != 5*time.Second {
		t.Errorf("delay rule = %+v", r)
	}
	if r := s.Rings[1]; r.Op != chaos.OpDup || r.Class != chaos.ClassAcks || r.Count != 2 {
		t.Errorf("dup rule = %+v", r)
	}
	if r := s.Rings[2]; r.Op != chaos.OpDrop || r.Class != chaos.ClassHB || r.Prob != 0.5 {
		t.Errorf("drop rule = %+v", r)
	}
	if r := s.Rings[3]; r.Prob != 1 {
		t.Errorf("drop without p<prob> defaulted to %v, want 1", r.Prob)
	}
}

// TestParseRejectsFaultMatrix pins the invariant-protecting matrix: drop
// and dup are rejected on channels where they would corrupt receipt
// watermarks or violate the shared-memory loss model.
func TestParseRejectsFaultMatrix(t *testing.T) {
	invalid := []string{
		"drop log 0s..1s",
		"drop acks 0s..1s",
		"drop sync 0s..1s",
		"drop bulk 0s..1s",
		"dup log x2 0s..1s",
		"dup sync x2 0s..1s",
		"dup bulk x2 0s..1s",
	}
	for _, spec := range invalid {
		if _, err := chaos.Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted an invariant-breaking fault", spec)
		} else if !strings.Contains(err.Error(), "invariant") {
			t.Errorf("Parse(%q) error %q does not explain the matrix", spec, err)
		}
	}
	malformed := []string{
		"kill primary 2s",
		"kill nobody @2s",
		"kill primary @2s gamma",
		"frob log 0s..1s",
		"delay log 0s..1s",
		"delay nowhere 200us 0s..1s",
		"dup acks x0 0s..1s",
		"drop hb p1.5 0s..1s",
		"drop hb p0 0s..1s",
		"delay log 200us 5s..1s",
		"delay log 200us 1s",
	}
	for _, spec := range malformed {
		if _, err := chaos.Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a malformed event", spec)
		}
	}
}

// TestClassOf checks that generation-suffixed rejoin rings inherit their
// channel class by prefix.
func TestClassOf(t *testing.T) {
	cases := map[string]string{
		"ftns.log":       chaos.ClassLog,
		"ftns.log.g2":    chaos.ClassLog,
		"ftns.acks":      chaos.ClassAcks,
		"ftns.acks.g3":   chaos.ClassAcks,
		"tcprep.sync.g1": chaos.ClassSync,
		"hb.s2b":         chaos.ClassHB,
		"hb.b2s.g7":      chaos.ClassHB,
		"rejoin.bulk.g1": chaos.ClassBulk,
		"mystery.ring":   "",
	}
	for name, want := range cases {
		if got := chaos.ClassOf(name); got != want {
			t.Errorf("ClassOf(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestPresetsParse(t *testing.T) {
	for name, spec := range chaos.Presets {
		s, err := chaos.Parse(spec)
		if err != nil {
			t.Errorf("preset %q: %v", name, err)
			continue
		}
		if s.Empty() {
			t.Errorf("preset %q parsed empty", name)
		}
		if s.String() != spec {
			t.Errorf("preset %q round-trip = %q", name, s.String())
		}
	}
	if s := chaos.MustParse(""); !s.Empty() {
		t.Error("empty spec should produce an empty schedule")
	}
}

// ringEnv builds a one-machine sim with a ring fabric for hook tests.
func ringEnv(t *testing.T, spec string) (*sim.Simulation, *shm.Fabric, *chaos.Injector) {
	t.Helper()
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	inj := chaos.NewInjector(chaos.MustParse(spec), chaos.Env{
		Sim:     s,
		Machine: m,
		Victim:  func(chaos.Target) (int, bool) { return 0, false },
	}, 99)
	return s, shm.NewFabric(s, time.Microsecond), inj
}

func TestInjectorDupDelivers(t *testing.T) {
	s, f, inj := ringEnv(t, "dup acks x2 0s..1s")
	r := f.NewRing("ftns.acks", 0, 1<<20)
	inj.ArmRing(r)
	s.Spawn("sender", func(p *sim.Proc) {
		r.Send(p, shm.Message{Kind: 1, Size: 8, W: [7]uint64{7}})
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if m := r.Recv(p); m.W[0] != 7 {
				t.Errorf("copy %d payload = %v", i, m.W[0])
			}
		}
	})
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if inj.Injected != 1 {
		t.Errorf("Injected = %d, want 1 (one faulted transfer)", inj.Injected)
	}
}

func TestInjectorDropWindow(t *testing.T) {
	s, f, inj := ringEnv(t, "drop hb 0s..1s")
	r := f.NewRing("hb.s2b", 0, 1<<20)
	inj.ArmRing(r)
	var got []int
	s.Spawn("sender", func(p *sim.Proc) {
		r.Send(p, shm.Message{Kind: 1, Size: 8, W: [7]uint64{1}}) // in window: dropped
		p.Sleep(2 * time.Second)
		r.Send(p, shm.Message{Kind: 1, Size: 8, W: [7]uint64{2}}) // after window
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		got = append(got, int(r.Recv(p).W[0]))
	})
	if err := s.RunUntil(sim.Time(5 * time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("received %v, want only the post-window beat", got)
	}
}

// TestInjectorDelayKeepsFIFO checks both the added latency and the FIFO
// clamp: a message sent after the delay window must not overtake a delayed
// one still in flight.
func TestInjectorDelayKeepsFIFO(t *testing.T) {
	s, f, inj := ringEnv(t, "delay log 200us 0s..10us")
	r := f.NewRing("ftns.log.g1", 0, 1<<20)
	inj.ArmRing(r)
	var payloads []int
	var times []sim.Time
	s.Spawn("sender", func(p *sim.Proc) {
		r.Send(p, shm.Message{Kind: 1, Size: 8, W: [7]uint64{1}}) // t=0, +200us chaos delay
		p.Sleep(50 * time.Microsecond)                            // outside the window
		r.Send(p, shm.Message{Kind: 1, Size: 8, W: [7]uint64{2}})
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			payloads = append(payloads, int(r.Recv(p).W[0]))
			times = append(times, p.Now())
		}
	})
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(payloads) != 2 || payloads[0] != 1 || payloads[1] != 2 {
		t.Fatalf("delivery order %v, want FIFO [1 2]", payloads)
	}
	if times[0] != sim.Time(201*time.Microsecond) {
		t.Errorf("delayed message arrived at %v, want 201us", times[0])
	}
	if times[1] < times[0] {
		t.Errorf("undelayed message overtook the delayed one (%v < %v)", times[1], times[0])
	}
}

// TestInjectorKillSkipsDeadVictim: a kill whose role has no live holder is
// skipped, like a fault striking already-dead hardware.
func TestInjectorKillSkipsDeadVictim(t *testing.T) {
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	faults := 0
	m.OnFault(func(hw.Fault) { faults++ })
	alive := true
	inj := chaos.NewInjector(chaos.MustParse("kill primary @1ms; kill primary @2ms"), chaos.Env{
		Sim:     s,
		Machine: m,
		Victim: func(chaos.Target) (int, bool) {
			if alive {
				alive = false
				return 3, true
			}
			return 0, false
		},
	}, 1)
	inj.Start()
	if err := s.RunUntil(sim.Time(10 * time.Millisecond)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if inj.Kills != 1 {
		t.Errorf("Kills = %d, want 1 (second victim was already dead)", inj.Kills)
	}
	if faults != 1 {
		t.Errorf("machine saw %d faults, want 1", faults)
	}
}

// TestParseBackupSlotKills pins the slot-addressed kill targets the
// N-way replica set adds: `backup<k>` kills the backup holding slot k.
func TestParseBackupSlotKills(t *testing.T) {
	s, err := chaos.Parse("kill backup2 @1s; kill backup1 @2s mem")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(s.Kills) != 2 {
		t.Fatalf("parsed %d kills, want 2", len(s.Kills))
	}
	if k := s.Kills[0]; k.Target != chaos.TargetBackupSlot(2) || k.At != time.Second {
		t.Errorf("kill[0] = %+v, want backup2 @1s", k)
	}
	if k := s.Kills[1]; k.Target != chaos.TargetBackupSlot(1) || k.Fault != hw.MemUncorrected {
		t.Errorf("kill[1] = %+v, want backup1 @2s mem", k)
	}
	if slot, any := chaos.TargetBackup.BackupSlot(); !any || slot != 0 {
		t.Errorf("TargetBackup.BackupSlot() = %d,%v, want any", slot, any)
	}
	if slot, any := chaos.TargetBackupSlot(3).BackupSlot(); any || slot != 3 {
		t.Errorf("TargetBackupSlot(3).BackupSlot() = %d,%v, want slot 3", slot, any)
	}
	if got := chaos.TargetBackupSlot(2).String(); got != "backup2" {
		t.Errorf("String = %q, want backup2", got)
	}
	for _, bad := range []string{"kill backup0 @1s", "kill backupx @1s", "kill backup-1 @1s"} {
		if _, err := chaos.Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted, want error", bad)
		}
	}
}

package chaos_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/shm"
	"repro/internal/sim"
)

// TestParseKills pins both kill forms: at a virtual time, and at a message
// boundary — the n-th transfer of a log, acks, sync or bulk channel — and
// the three kill kinds. A boundary kill on the heart-beat channel, on an
// unknown one, or with a count below 1 is rejected, and so is a kind that is
// none of core, coherency and hang, with an error naming the three.
func TestParseKills(t *testing.T) {
	for _, row := range []struct {
		spec string
		want chaos.Kill
	}{
		{"kill primary @2s", chaos.Kill{At: 2 * time.Second, Target: chaos.TargetPrimary, Kind: chaos.Core}},
		{"kill backup @1500ms coherency", chaos.Kill{At: 1500 * time.Millisecond, Target: chaos.TargetBackup, Kind: chaos.Coherency}},
		{"kill primary @log#3", chaos.Kill{Class: chaos.ClassLog, N: 3, Target: chaos.TargetPrimary, Kind: chaos.Core}},
		{"kill backup @acks#1 hang", chaos.Kill{Class: chaos.ClassAcks, N: 1, Target: chaos.TargetBackup, Kind: chaos.Hang}},
		{"kill backup2 @sync#12 core", chaos.Kill{Class: chaos.ClassSync, N: 12, Target: chaos.TargetBackupSlot(2), Kind: chaos.Core}},
		{"kill primary @bulk#2 coherency", chaos.Kill{Class: chaos.ClassBulk, N: 2, Target: chaos.TargetPrimary, Kind: chaos.Coherency}},
	} {
		s, err := chaos.Parse(row.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", row.spec, err)
			continue
		}
		if len(s.Kills) != 1 || len(s.Rings) != 0 || s.Kills[0] != row.want {
			t.Errorf("Parse(%q) = %+v, want the one kill %+v", row.spec, s, row.want)
		}
	}
	for _, bad := range []string{
		"kill primary @log#0",
		"kill primary @log#-1",
		"kill primary @log#x",
		"kill primary @log#",
		"kill primary @hb#1",
		"kill primary @nowhere#1",
		"kill primary @#1",
	} {
		if _, err := chaos.Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted, want error", bad)
		}
	}
	for _, bad := range []string{"kill primary @1s mem", "kill backup @log#2 bus", "kill primary @1s Hang"} {
		if _, err := chaos.Parse(bad); err == nil || !strings.Contains(err.Error(), "(core, coherency, hang)") {
			t.Errorf("Parse(%q): %v, want an error naming the three kinds", bad, err)
		}
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
		"tune backup1 salt 9",
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
	inj := chaos.NewInjector(chaos.MustParse(spec), chaos.Env{
		Sim:    s,
		Victim: func(chaos.Target) *kernel.Kernel { return nil },
	})
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
	s, m, k := bootVictim(t, 3)
	faults := 0
	m.OnFault(func(hw.Fault) { faults++ })
	inj := chaos.NewInjector(chaos.MustParse("kill primary @1ms; kill primary @2ms"), chaos.Env{
		Sim: s,
		Victim: func(chaos.Target) *kernel.Kernel {
			if k.Alive() {
				k.Panic("killed", nil)
				return k
			}
			return nil
		},
	})
	inj.Start()
	if err := s.RunUntil(sim.Time(10 * time.Millisecond)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(inj.Victims) != 1 {
		t.Errorf("%d victims, want 1 (second victim was already dead)", len(inj.Victims))
	}
	if faults != 1 {
		t.Errorf("machine saw %d faults, want 1", faults)
	}
}

// TestParseBackupSlotKills pins the slot-addressed kill targets the
// N-way replica set adds: `backup<k>` kills the backup holding slot k.
func TestParseBackupSlotKills(t *testing.T) {
	s, err := chaos.Parse("kill backup2 @1s; kill backup1 @2s hang")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(s.Kills) != 2 {
		t.Fatalf("parsed %d kills, want 2", len(s.Kills))
	}
	if k := s.Kills[0]; k.Target != chaos.TargetBackupSlot(2) || k.At != time.Second {
		t.Errorf("kill[0] = %+v, want backup2 @1s", k)
	}
	if k := s.Kills[1]; k.Target != chaos.TargetBackupSlot(1) || k.Kind != chaos.Hang {
		t.Errorf("kill[1] = %+v, want backup1 @2s hang", k)
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

// TestInjectorKillsAtNthTransfer: a message-boundary kill fires the instant
// the n-th transfer of its class lands — counted across ring generations,
// and blind to other classes' transfers — and never again.
func TestInjectorKillsAtNthTransfer(t *testing.T) {
	s, m, k := bootVictim(t, 2)
	f := shm.NewFabric(s, time.Microsecond)
	inj := chaos.NewInjector(chaos.MustParse("kill primary @log#3"), chaos.Env{
		Sim:    s,
		Victim: func(chaos.Target) *kernel.Kernel { return k },
	})
	logs := []*shm.Ring{f.NewRing("ftns.log", 0, 1<<20), f.NewRing("ftns.log.g1", 0, 1<<20)}
	acks := f.NewRing("ftns.acks", 1, 1<<20)
	var landed []sim.Time // log transfers
	for _, r := range append(logs, acks) {
		if r != acks {
			r.OnDelivered(func() { landed = append(landed, s.Now()) })
		}
		inj.ArmRing(r)
	}
	inj.Start()
	var faults []sim.Time
	m.OnFault(func(f hw.Fault) {
		if f.Node != 2 {
			t.Errorf("fault on node %d, want the victim's 2", f.Node)
		}
		faults = append(faults, s.Now())
	})
	s.Spawn("sender", func(p *sim.Proc) {
		for i, r := range []*shm.Ring{logs[0], acks, logs[0], acks, logs[1], logs[1]} {
			r.Send(p, shm.Message{Kind: 1, Size: 8, W: [7]uint64{uint64(i)}})
			p.Sleep(10 * time.Microsecond)
		}
	})
	if err := s.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(landed) != 4 || len(faults) != 1 || faults[0] != landed[2] || len(inj.Victims) != 1 {
		t.Errorf("log transfers landed at %v, faults at %v, %d victims; want one, as the third landed", landed, faults, len(inj.Victims))
	}
}

// bootVictim boots a kernel on one node of a fresh machine: a kill's
// victim.
func bootVictim(t *testing.T, node int) (*sim.Simulation, *hw.Machine, *kernel.Kernel) {
	t.Helper()
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	part, err := m.NewPartition("victim", node)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(part, kernel.Config{Name: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	return s, m, k
}

// TestInjectorHangStopsVictim: a hang raises no machine check and stops
// its victim's tasks, which stays alive, and it holds the run open until
// the victim is halted — at a peer's IPI, say — or, if nothing halts it,
// for ten seconds.
func TestInjectorHangStopsVictim(t *testing.T) {
	for _, halt := range []bool{true, false} {
		s, m, k := bootVictim(t, 1)
		m.OnFault(func(f hw.Fault) { t.Errorf("a hang raised %v", f) })
		inj := chaos.NewInjector(chaos.MustParse("kill primary @1ms hang"), chaos.Env{
			Sim:    s,
			Victim: func(chaos.Target) *kernel.Kernel { return k },
		})
		inj.Start()
		var ticks []sim.Time
		k.Spawn("ticker", func(task *kernel.Task) {
			task.Proc().SetBackground(true)
			for {
				ticks = append(ticks, task.Now())
				task.Sleep(300 * time.Microsecond)
			}
		})
		alive := false
		s.Schedule(50*time.Millisecond, func() {
			if alive = k.Alive(); halt {
				k.Panic("forcibly halted by peer IPI", nil)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		end := map[bool]sim.Time{true: sim.Time(50 * time.Millisecond), false: sim.Time(time.Millisecond + 10*time.Second)}[halt]
		if len(ticks) != 4 || !alive || s.Now() != end || len(inj.Victims) != 1 || k.Alive() == halt {
			t.Errorf("halt=%v: ticks at %v, alive at 50ms %v, run ended at %v, alive at its end %v; want 4 ticks, alive, the end at %v",
				halt, ticks, alive, s.Now(), k.Alive(), end)
		}
		s.Shutdown()
	}
}

package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"repro/internal/apps/restream"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcprep"
	"repro/internal/tcpstack"
)

func quietParams() kernel.Params {
	p := kernel.DefaultParams()
	p.IdleWakeMin, p.IdleWakeMax = 0, 0
	return p
}

// slowLAN throttles the client link so a multi-failure timeline fits in a
// stream that is still small enough to verify byte by byte.
func slowLAN() simnet.LinkConfig {
	return simnet.LinkConfig{BitsPerSec: 100e6, Latency: 100 * time.Microsecond}
}

// Output-commit pacing (not the link) bounds the simulated stream at
// roughly 2 MB/s, so 64 MiB keeps the transfer alive past a second kill
// at t=15s while finishing well inside the run window.
const rejoinStreamTotal = 64 << 20

// plainStream and restorableStream are the two launches of the same
// restream server: a plain Main that a rejoined backup replays from its
// first section — the non-State launch path — and the restorable app epoch
// checkpoints require (a backup seeded from a cut resumes it from its
// snapshot). plainStream builds a fresh Server on every start, one per
// replica and per rejoin: a shared one would race on the offset.
func plainStream(total int) core.App {
	cfg := restream.Config{Port: 80, Chunk: 64 << 10, Total: total}
	return core.App{Name: "stream", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		restream.New(cfg).Main(th, socks)
	}}
}

func restorableStream(total int) core.App {
	return core.App{Name: "stream", State: func() core.AppState {
		return restream.New(restream.Config{Port: 80, Chunk: 64 << 10, Total: total})
	}}
}

// rejoinRun boots a rejoin-enabled deployment via the functional-options
// API, streams total patterned bytes from app to a client under the given
// chaos schedule (empty = fault-free baseline), verifies every received
// chunk against the deterministic pattern as it arrives, runs until the
// deployment's work is done, and returns the system, the FNV-1a hash of the
// received stream, and every lifecycle state the system passed through, in
// order. Callers pass WithEpochCheckpoints, WithDetShards and the like
// through extra.
func rejoinRun(t *testing.T, spec string, seed int64, app func(total int) core.App, total int, extra ...core.Option) (*core.System, uint64, []core.LifecycleState) {
	t.Helper()
	opts := []core.Option{
		core.WithSeed(seed),
		core.WithKernelParams(quietParams()),
		withMSS(16 << 10),
		core.WithNICDriverLoadTime(time.Second),
		core.WithRejoinDelay(3 * time.Second),
	}
	opts = append(opts, extra...)
	if spec != "" {
		opts = append(opts, core.WithChaos(chaos.MustParse(spec), 42))
	}
	sys, err := core.New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	client, err := sys.AttachNetwork(slowLAN())
	if err != nil {
		t.Fatalf("attach network: %v", err)
	}
	sys.Run(app(total))

	h := fnv.New64a()
	got := 0
	client.Kernel.Spawn("wget", func(tk *kernel.Task) {
		c, err := client.Stack.Connect(tk, client.ServerAddr(80))
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		want := make([]byte, 256<<10)
		for {
			data, err := c.Recv(tk, 256<<10)
			if errors.Is(err, tcpstack.EOF) {
				return
			}
			if err != nil {
				t.Errorf("recv after %d bytes: %v", got, err)
				return
			}
			restream.Fill(want[:len(data)], got)
			if !bytes.Equal(data, want[:len(data)]) {
				t.Errorf("stream diverged from never-failed pattern at offset %d", got)
				return
			}
			h.Write(data)
			got += len(data)
		}
	})
	if err := sys.Sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != total {
		t.Fatalf("client received %d of %d bytes by the end of the run at %v (state %v, rejoinErr %v)",
			got, total, sys.Sim.Now(), sys.State(), sys.RejoinErr())
	}
	return sys, h.Sum64(), lifecycleStates(sys)
}

// lifecycleStates returns every lifecycle state of a run, in order, read
// off the lifecycle scope's flight ring: the state each transition entered.
func lifecycleStates(sys *core.System) []core.LifecycleState {
	var states []core.LifecycleState
	for _, ev := range sys.Obs.FlightDump().Events {
		if ev.Kind == obs.StateChange {
			states = append(states, core.LifecycleState(ev.Seq))
		}
	}
	return states
}

// seedEpochs returns the epoch each rejoin of a run was seeded from, in
// generation order (0 = the genesis checkpoint: full-history replay), read
// off the lifecycle scope's flight ring.
func seedEpochs(sys *core.System) []uint64 {
	var epochs []uint64
	for _, ev := range sys.Obs.FlightDump().Events {
		var gen int
		var epoch uint64
		if ev.Kind != obs.CheckpointCut {
			continue
		}
		if _, err := fmt.Sscanf(ev.Note, "g%d: epoch %d seed", &gen, &epoch); err == nil {
			epochs = append(epochs, epoch)
		}
	}
	return epochs
}

// TestRejoinSecondFailureAfterResync is the acceptance scenario: kill the
// primary mid-stream, let the freed partition rejoin and resync, then kill
// the new primary too. The client must observe the exact byte stream of
// the row's never-failed run — whatever the det-shard count — and the
// system must end up fully replicated again. Every cell drives the same
// seeding path; what differs is the checkpoint each rejoin finds: genesis
// with epochs off (the whole history is the delta), a verified cut with
// epochs on, and — when the first kill lands before any cut was verified —
// genesis first and a verified cut second, so one run starts a restorable
// app fresh and later resumes it from a snapshot.
func TestRejoinSecondFailureAfterResync(t *testing.T) {
	t.Parallel()
	epochs := func(every time.Duration) []core.Option {
		return []core.Option{core.WithEpochCheckpoints(every, 0)}
	}
	rows := []struct {
		name   string
		app    func(int) core.App
		opts   []core.Option
		shards []int
		seeded [2]bool // whether each rejoin must seed from an epoch > 0
	}{
		{"epochs-off", plainStream, nil, []int{1, 4}, [2]bool{false, false}},
		{"epochs-on", restorableStream, epochs(500 * time.Millisecond), []int{1, 4}, [2]bool{true, true}},
		{"first-kill-before-first-cut", restorableStream, epochs(3 * time.Second), []int{1}, [2]bool{false, true}},
	}
	wantStates := []core.LifecycleState{
		core.StateReplicated,
		core.StateDegraded, core.StateResyncing, core.StateReplicated,
		core.StateDegraded, core.StateResyncing, core.StateReplicated,
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			_, base, _ := rejoinRun(t, "", 7, row.app, rejoinStreamTotal, row.opts...)
			for _, shards := range row.shards {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					sys, h, states := rejoinRun(t, "kill primary @2s; kill primary @10s", 7,
						row.app, rejoinStreamTotal, append(row.opts[:len(row.opts):len(row.opts)], core.WithDetShards(shards))...)
					if h != base {
						t.Errorf("chaos-run stream hash %x != never-failed same-seed hash %x", h, base)
					}
					if err := sys.RejoinErr(); err != nil {
						t.Errorf("rejoin error: %v", err)
					}
					if err := sys.Healthy(); err != nil {
						t.Errorf("end state not healthy: %v", err)
					}
					if !reflect.DeepEqual(states, wantStates) {
						t.Errorf("lifecycle states = %v, want %v", states, wantStates)
					}
					seeds := seedEpochs(sys)
					if len(seeds) != 2 || sys.Generation() != 2 {
						t.Fatalf("generation = %d with seed epochs %v, want one rejoin per kill", sys.Generation(), seeds)
					}
					for i, epoch := range seeds {
						if (epoch > 0) != row.seeded[i] {
							t.Errorf("rejoin %d seeded from epoch %d, want epoch>0 = %v", i+1, epoch, row.seeded[i])
						}
					}
					// Both survivors spent time replaying as a secondary; neither
					// may have seen a single replay mismatch — including at the
					// epoch boundaries, where the digest check would have killed
					// the replica on any deviation from the recorded state.
					for _, rep := range []*core.Replica{sys.Active(), sys.Standby()} {
						if rep == nil || !rep.Kernel.Alive() {
							t.Fatal("active or standby replica missing at end")
						}
						if d := rep.NS.Stats().Divergences; d != 0 {
							t.Errorf("slot %d recorded %d divergences", rep.Slot(), d)
						}
					}
				})
			}
		})
	}
}

// TestRejoinChaosSchedules runs the crash-rejoin-crash stream under three
// different seeded chaos schedules — plain double kill, a heart-beat storm
// (which may add a spurious early failover the system must also survive),
// and duplicated acks plus delayed log/sync delivery around the first kill
// — and checks each against the same never-failed same-seed baseline.
func TestRejoinChaosSchedules(t *testing.T) {
	t.Parallel()
	_, base, _ := rejoinRun(t, "", 11, plainStream, rejoinStreamTotal)
	schedules := map[string]string{
		"double-kill": "kill primary @2s; kill primary @10s",
		"hb-storm":    "drop hb p0.5 500ms..800ms; kill primary @6s; kill primary @15s",
		"dup-delay":   "dup acks x2 0s..8s; delay log 150us 1s..3s; delay sync 100us 1s..3s; kill primary @2500ms; kill primary @10s",
	}
	for name, spec := range schedules {
		t.Run(name, func(t *testing.T) {
			sys, h, states := rejoinRun(t, spec, 11, plainStream, rejoinStreamTotal)
			if h != base {
				t.Errorf("stream hash %x != never-failed baseline %x", h, base)
			}
			if g := sys.Generation(); g < 2 {
				t.Errorf("generation = %d, want >= 2", g)
			}
			if st := sys.State(); st != core.StateReplicated {
				t.Errorf("end state = %v, want replicated (states %v)", st, states)
			}
			if err := sys.RejoinErr(); err != nil {
				t.Errorf("rejoin error: %v", err)
			}
			if inj := sys.Injector(); inj.Kills < 2 {
				t.Errorf("injector delivered %d kills, want >= 2", inj.Kills)
			}
		})
	}
}

// TestRejoinMidResyncActiveKill kills the active replica while the rejoin
// resync is still running: the half-synced backup must finish catching up
// from the retained log it already holds, promote, and serve the rest of
// the stream unchanged; the freed partition then rejoins again.
func TestRejoinMidResyncActiveKill(t *testing.T) {
	t.Parallel()
	sys, err := core.New(
		core.WithSeed(3),
		core.WithKernelParams(quietParams()),
		withMSS(16<<10),
		core.WithNICDriverLoadTime(time.Second),
		core.WithRejoinDelay(3*time.Second),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	client, err := sys.AttachNetwork(slowLAN())
	if err != nil {
		t.Fatalf("attach network: %v", err)
	}
	total := 48 << 20
	sys.Run(plainStream(total))
	sys.InjectPrimaryFailure(2*time.Second, hw.CoreFailStop)

	// As soon as the resync starts, kill the active side 50 ms in — while
	// the catch-up replay is still streaming. The watch polls as background
	// work, so it never holds the run open; the kill it arms does.
	killed := false
	sys.Sim.SpawnAfter("watch", 2*time.Millisecond, func(p *sim.Proc) {
		p.SetBackground(true)
		for sys.State() != core.StateResyncing {
			p.Sleep(2 * time.Millisecond)
		}
		p.SetBackground(false)
		killed = true
		node := sys.Active().Kernel.Partition().Nodes()[0].ID
		p.Sleep(50 * time.Millisecond)
		sys.Machine.Inject(hw.Fault{Kind: hw.CoreFailStop, Node: node, Core: -1, Addr: -1})
	})

	h := fnv.New64a()
	got := 0
	client.Kernel.Spawn("wget", func(tk *kernel.Task) {
		c, err := client.Stack.Connect(tk, client.ServerAddr(80))
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		want := make([]byte, 256<<10)
		for {
			data, err := c.Recv(tk, 256<<10)
			if errors.Is(err, tcpstack.EOF) {
				return
			}
			if err != nil {
				t.Errorf("recv after %d bytes: %v", got, err)
				return
			}
			restream.Fill(want[:len(data)], got)
			if !bytes.Equal(data, want[:len(data)]) {
				t.Errorf("stream diverged at offset %d after mid-resync promotion", got)
				return
			}
			h.Write(data)
			got += len(data)
		}
	})
	if err := sys.Sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !killed {
		t.Fatal("never observed StateResyncing to inject the second failure")
	}
	if got != total {
		t.Fatalf("client received %d of %d bytes (state %v, rejoinErr %v)",
			got, total, sys.State(), sys.RejoinErr())
	}
	if st := sys.State(); st != core.StateReplicated {
		t.Errorf("end state = %v, want replicated", st)
	}
	if g := sys.Generation(); g != 2 {
		t.Errorf("generation = %d, want 2", g)
	}
}

// TestLifecycleErrorsWithoutRejoin pins the typed-error surface when
// re-integration is disabled: after the backup dies the system reports
// degraded via State and Healthy, and Rejoin refuses with ErrDegraded.
func TestLifecycleErrorsWithoutRejoin(t *testing.T) {
	t.Parallel()
	sys := quietSystem(t, 5)
	if st := sys.State(); st != core.StateReplicated {
		t.Fatalf("boot state = %v, want replicated", st)
	}
	if err := sys.Healthy(); err != nil {
		t.Fatalf("healthy at boot: %v", err)
	}
	done := 0
	sys.Run(core.App{Name: "echo", Main: echoApp(80, 1, &done)})
	// Kill the secondary partition's first node.
	node := sys.Secondary.Kernel.Partition().Nodes()[0].ID
	sys.Machine.InjectAfter(100*time.Millisecond, hw.Fault{
		Kind: hw.CoreFailStop, Node: node, Core: -1, Addr: -1,
	})
	if err := sys.Sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if st := sys.State(); st != core.StateDegraded {
		t.Fatalf("state after backup death = %v, want degraded", st)
	}
	if err := sys.Healthy(); !errors.Is(err, core.ErrDegraded) {
		t.Errorf("Healthy = %v, want ErrDegraded", err)
	}
	if err := sys.Rejoin(); !errors.Is(err, core.ErrDegraded) {
		t.Errorf("Rejoin with rejoin disabled = %v, want ErrDegraded", err)
	}
	if sys.Active() != sys.Primary || sys.Standby() != nil {
		t.Error("active/standby roles wrong after backup death")
	}
}

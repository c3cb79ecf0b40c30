package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/memcached"
	"repro/internal/apps/mongoose"
	"repro/internal/apps/pbzip2"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/obs/causal"
	"repro/internal/replication"
	"repro/internal/tcprep"
)

// TestKillAtEveryTransfer kills the recording side at every message
// boundary of a 256 KiB download from the restream server, at two replicas,
// one det shard and strict output commit: as each log, sync and acks
// transfer of the never-failed run lands (kill primary @<class>#n). A sync
// transfer carries data-in updates that absorbed the ack-out before them.
// At every boundary the client receives the never-failed run's bytes, the
// tuple orders diff clean with no divergence on any replica, the run ends
// replicated at generation 1 or later with every live kernel's cores idle,
// and Wait reports no hang (rejoinRun fails the test on the first two and
// the last).
func TestKillAtEveryTransfer(t *testing.T) {
	t.Parallel()
	const total = 256 << 10
	clean, want, _ := rejoinRun(t, "", 1, plainStream, total, core.WithTrace())
	transfers := map[string]int{}
	for _, e := range clean.Obs.Events() {
		if e.Kind == obs.RingDeliver {
			transfers[chaos.ClassOf(strings.TrimPrefix(e.Scope, "shm/"))]++
		}
	}
	start := time.Now()
	kills := 0
	for _, class := range []string{chaos.ClassLog, chaos.ClassSync, chaos.ClassAcks} {
		if transfers[class] == 0 {
			t.Fatalf("the never-failed run has no %s transfers", class)
		}
		for n := 1; n <= transfers[class]; n++ {
			spec := fmt.Sprintf("kill primary @%s#%d", class, n)
			t.Run(spec, func(t *testing.T) {
				sys, got, _ := rejoinRun(t, spec, 1, plainStream, total, core.WithTrace())
				kills++
				if got != want {
					t.Errorf("the client's stream hashes to %x, the never-failed run's to %x", got, want)
				}
				if d := causal.DiffTraces(clean.Obs.Events(), sys.Obs.Events(), 0); d != nil {
					t.Errorf("the tuple orders diverge: %s", d.Summary())
				}
				if inj := sys.Injector(); inj.Kills != 1 {
					t.Errorf("%d kills delivered, want 1", inj.Kills)
				}
				if g, st := sys.Generation(), sys.State(); g < 1 || st != core.StateReplicated {
					t.Errorf("generation %d in state %v at the end, want >= 1 and replicated", g, st)
				}
				for _, rep := range []*core.Replica{sys.Active(), sys.Standby()} {
					if rep == nil {
						t.Errorf("a replica is missing at the end")
						continue
					}
					if d := rep.NS.Stats().Divergences; d != 0 {
						t.Errorf("%d divergences on %s", d, rep.Kernel.Name())
					}
					if k := rep.Kernel; k.Alive() && k.IdleCores() != k.Cores() {
						t.Errorf("%s has %d of %d cores idle once quiet", k.Name(), k.IdleCores(), k.Cores())
					}
				}
			})
		}
	}
	t.Logf("%d kills (%v transfers) in %v", kills, transfers, time.Since(start))
}

// sweepApp is one application of the widened kill sweep: start launches it
// (and its client, if it has one) on a fresh deployment and returns what the
// run showed the outside world, read once the run is over. serves marks a
// server whose mains never return: the run ends when it goes quiet, and an
// unfinished client shows a hang in the output instead of Wait.
type sweepApp struct {
	name   string
	serves bool
	start  func(t *testing.T, sys *core.System) (output func() string)
}

// mongooseApp serves three sequential 10 KiB page requests from two workers.
var mongooseApp = sweepApp{"mongoose", true, func(t *testing.T, sys *core.System) func() string {
	cfg := mongoose.Config{Port: 8080, Workers: 2, PageBytes: 10 << 10, CPULoad: 100 * time.Microsecond, AcceptCost: 300 * time.Microsecond}
	sys.Run(core.App{Name: "mongoose", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		mongoose.Run(th, socks, cfg, &mongoose.Stats{})
	}})
	return runClient(t, sys, func(tk *kernel.Task, client *core.Client, out *strings.Builder) {
		for range 3 {
			c, err := client.Stack.Connect(tk, client.ServerAddr(8080))
			if err != nil {
				fmt.Fprintf(out, "connect: %v", err)
				return
			}
			_, _ = c.Send(tk, []byte("GET / HTTP/1.0\r\n\r\n"))
			n, err := 0, error(nil)
			for data := []byte(nil); err == nil; data, err = c.Recv(tk, 64<<10) {
				n += len(data)
			}
			_ = c.Close(tk)
			fmt.Fprintf(out, "page %d B, %v; ", n, err)
		}
	})
}}

// memcachedApp serves one connection 24 alternating sets and gets: past
// the server's quick-ACK mode each request's ACK rides its reply, so a kill
// at a transfer between a request and its reply — the log transfer of the
// request's read, say — finds the primary owing that ACK.
var memcachedApp = sweepApp{"memcached", true, func(t *testing.T, sys *core.System) func() string {
	sys.Run(core.App{Name: "memcached", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		memcached.RunServer(th, socks, memcached.ServerConfig{Port: 11211, Workers: 2}, &memcached.ServerStats{})
	}})
	return runClient(t, sys, func(tk *kernel.Task, client *core.Client, out *strings.Builder) {
		c, err := client.Stack.Connect(tk, client.ServerAddr(11211))
		for i := 0; i < 24 && err == nil; i++ {
			cmd := fmt.Sprintf("set k%d value-%d\n", i/2, i)
			if i%2 == 1 {
				cmd = fmt.Sprintf("get k%d\n", i/2)
			}
			var reply []byte
			if _, err = c.Send(tk, []byte(cmd)); err == nil {
				reply, err = c.Recv(tk, 4096)
			}
			out.Write(reply)
		}
		if err != nil {
			fmt.Fprintf(out, "error: %v", err)
			return
		}
		_, _ = c.Send(tk, []byte("quit\n"))
		_ = c.Close(tk)
	})
}}

// pbzip2App compresses four 25 KiB blocks on two workers; its output is
// what the replica active at the end wrote.
var pbzip2App = sweepApp{"pbzip2", false, func(t *testing.T, sys *core.System) func() string {
	cfg := pbzip2.DefaultConfig()
	cfg.BlockSize, cfg.MaxBlocks, cfg.Workers, cfg.QueueCap = 25<<10, 4, 2, 4
	stats := map[*replication.Namespace]*pbzip2.Stats{}
	sys.Run(core.App{Name: "pbzip2", Main: func(th *replication.Thread, _ *tcprep.Sockets) {
		st := &pbzip2.Stats{}
		stats[th.NS()] = st
		pbzip2.Run(th, cfg, st)
	}})
	return func() string {
		st := stats[sys.Active().NS]
		if st == nil {
			return "no run on the active replica"
		}
		return fmt.Sprintf("%d blocks, checksum %x (want %x), done %v", st.Blocks, st.Checksum, pbzip2.ExpectChecksum(cfg), st.Done)
	}
}}

// runClient attaches the client network and runs body on the client
// machine; the returned output is what body wrote.
func runClient(t *testing.T, sys *core.System, body func(*kernel.Task, *core.Client, *strings.Builder)) func() string {
	client, err := sys.AttachNetwork(slowLAN())
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	client.Kernel.Spawn("client", func(tk *kernel.Task) { body(tk, client, &out) })
	return out.String
}

func relaxedCommit(c *core.Config) { c.Replication.StrictOutputCommit = false }

// sweepConfig is one deployment shape of a kill sweep.
type sweepConfig struct {
	replicas, shards int
	strict           bool
}

// TestKillAtEveryTransferMongoose is killSweep over Mongoose serving three
// requests: two replicas at one det shard with strict output commit, and
// three at four shards with relaxed commit.
func TestKillAtEveryTransferMongoose(t *testing.T) {
	killSweep(t, mongooseApp, sweepConfig{2, 1, true}, sweepConfig{3, 4, false})
}

// TestKillAtEveryTransferPBZIP2 is killSweep over PBZIP2 compressing four
// blocks: two replicas at four shards, strict; three at one shard, relaxed.
func TestKillAtEveryTransferPBZIP2(t *testing.T) {
	killSweep(t, pbzip2App, sweepConfig{2, 4, true}, sweepConfig{3, 1, false})
}

// TestKillAtEveryTransferMemcached is killSweep over memcached serving one
// connection 24 commands, at two replicas and four shards, strict.
func TestKillAtEveryTransferMemcached(t *testing.T) {
	killSweep(t, memcachedApp, sweepConfig{2, 4, true})
}

// killSweep runs TestKillAtEveryTransfer's oracle over app at each config:
// the recording side is killed as each log, sync and acks transfer of the
// never-failed run lands. At every boundary the world outside sees the
// never-failed run's output, no replica diverges, the run ends replicated
// at generation 1 or later with every live kernel's cores idle, and an app
// whose mains return does not hang. A fail-stop kill loses no output under
// relaxed commit either: the log ring's contents survive it.
//
// These apps are multithreaded, so the tuple order the promoted fork
// records on with is a live schedule and may differ from the never-failed
// run's (a parked worker woken by promotion records a spurious wake-up,
// which the app's wait loop absorbs); the oracle's tuple-order diff is
// restream's alone. What stands for it here: each rejoined backup replays
// the whole retained history — the dead primary's acknowledged prefix, then
// the fork's recording — from its first tuple without a divergence.
func killSweep(t *testing.T, app sweepApp, configs ...sweepConfig) {
	t.Parallel()
	start := time.Now()
	kills := 0
	for _, cfg := range configs {
		opts := []core.Option{core.WithReplicaSet(cfg.replicas), core.WithDetShards(cfg.shards)}
		if !cfg.strict {
			opts = append(opts, relaxedCommit)
		}
		name := fmt.Sprintf("n%d/shards%d/strict=%v", cfg.replicas, cfg.shards, cfg.strict)
		t.Run(name, func(t *testing.T) {
			clean, want := sweepRun(t, app, "", opts)
			transfers := map[string]int{}
			for _, e := range clean.Obs.Events() {
				if e.Kind == obs.RingDeliver {
					transfers[chaos.ClassOf(strings.TrimPrefix(e.Scope, "shm/"))]++
				}
			}
			if transfers[chaos.ClassLog] == 0 || transfers[chaos.ClassAcks] == 0 {
				t.Fatalf("the never-failed run has transfers %v", transfers)
			}
			for _, class := range []string{chaos.ClassLog, chaos.ClassSync, chaos.ClassAcks} {
				for n := 1; n <= transfers[class]; n++ {
					spec := fmt.Sprintf("kill primary @%s#%d", class, n)
					sys, got := sweepRun(t, app, spec, opts)
					kills++
					if got != want {
						t.Errorf("%s: the output is %q, the never-failed run's %q", spec, got, want)
					}
					checkKilledRun(t, spec, sys)
					sys.Sim.Shutdown() // its parked processes go now, not at the row's end
				}
			}
			t.Logf("%v transfers", transfers)
		})
	}
	t.Logf("%d kills in %v", kills, time.Since(start))
}

// sweepRun runs one deployment of app under the chaos schedule spec (empty:
// never failed) and returns it with its output.
func sweepRun(t *testing.T, app sweepApp, spec string, opts []core.Option) (*core.System, string) {
	t.Helper()
	opts = append([]core.Option{core.WithSeed(1), core.WithKernelParams(quietParams()), fastNICReload,
		core.WithRejoinDelay(3 * time.Second), core.WithTrace()}, opts...)
	if spec != "" {
		opts = append(opts, withChaos(spec))
	}
	sys, err := core.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Sim.Shutdown)
	output := app.start(t, sys)
	if app.serves {
		err = sys.Sim.Run()
	} else {
		err = sys.Wait()
	}
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return sys, output()
}

// checkKilledRun is the rest of the oracle, for a run killed once by spec.
func checkKilledRun(t *testing.T, spec string, sys *core.System) {
	t.Helper()
	if inj := sys.Injector(); inj.Kills != 1 {
		t.Errorf("%s: %d kills delivered, want 1", spec, inj.Kills)
	}
	if g, st := sys.Generation(), sys.State(); g < 1 || st != core.StateReplicated {
		t.Errorf("%s: generation %d in state %v at the end, want >= 1 and replicated", spec, g, st)
	}
	for _, rep := range append([]*core.Replica{sys.Active()}, sys.Backups()...) {
		if d := rep.NS.Stats().Divergences; d != 0 {
			t.Errorf("%s: %d divergences on %s", spec, d, rep.Kernel.Name())
		}
		if k := rep.Kernel; k.Alive() && k.IdleCores() != k.Cores() {
			t.Errorf("%s: %s has %d of %d cores idle once quiet", spec, k.Name(), k.IdleCores(), k.Cores())
		}
	}
}

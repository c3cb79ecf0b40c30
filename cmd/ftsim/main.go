// Command ftsim runs a configurable FT-Linux failover scenario: the
// replicated restream server, a downloading client that checks every
// byte, and injected faults, printing the timeline and the client's view.
//
//	ftsim -size 2147483648 -fail 5s -fault coherency -relaxed
//	ftsim -chaos kill-rejoin-kill        # preset crash/rejoin cycles
//	ftsim -chaos "drop hb p0.5 1s..2s; kill primary @3s" -chaos-seed 7
//	ftsim -trace out.json                # Perfetto-loadable timeline
//
// Every kill — -fail's or a chaos schedule's — is followed by backup
// re-integration: after -rejoin-delay the freed partition boots a fresh
// kernel, resyncs from a checkpoint plus catch-up replay, and the pair
// returns to replicated mode. -chaos takes a preset name (kill-rejoin-kill,
// hb-storm, dup-delay) or a raw schedule spec. -flight writes the failover
// flight-recorder dump to a file (CI keeps it as an artifact when a run
// fails).
//
// With -trace the full event stream is retained and written as a Chrome
// trace-event file (open it at https://ui.perfetto.dev). The trace is
// deterministic: two runs with the same flags and seeds produce
// byte-identical files. On runs that kill the primary, the flight
// recorder's dump (the last events each component saw at the moment of
// failure) is printed after the timeline.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/apps/clients"
	"repro/internal/apps/restream"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/simnet"
)

type options struct {
	size        int64
	failAt      time.Duration
	fault       string
	relaxed     bool
	seed        int64
	trace       string
	events      string
	chaosSpec   string
	chaosSeed   int64
	rejoinDelay time.Duration
	flight      string
	shards      int
	replicas    int
	quorum      int
}

func main() {
	var o options
	flag.Int64Var(&o.size, "size", 1<<30, "file size in bytes")
	flag.DurationVar(&o.failAt, "fail", 3*time.Second, "when to kill the primary (0 = never)")
	flag.StringVar(&o.fault, "fault", "core", "fault kind: core, mem, bus, coherency")
	flag.BoolVar(&o.relaxed, "relaxed", false, "use relaxed output commit (§3.5)")
	flag.Int64Var(&o.seed, "seed", 1, "simulation seed")
	flag.StringVar(&o.trace, "trace", "", "write a Chrome/Perfetto trace of the run to this file")
	flag.StringVar(&o.events, "events", "", "write the raw event stream as JSONL to this file (ftdiag input)")
	flag.StringVar(&o.chaosSpec, "chaos", "", "chaos schedule (preset name or spec)")
	flag.Int64Var(&o.chaosSeed, "chaos-seed", 42, "seed for the chaos injector's RNG stream")
	flag.DurationVar(&o.rejoinDelay, "rejoin-delay", core.DefaultConfig(1).RejoinDelay, "partition repair time before a backup rejoins")
	flag.StringVar(&o.flight, "flight", "", "write the failover flight-recorder dump to this file")
	flag.IntVar(&o.shards, "shards", 1, "det-section sequencer shards (1 = the global-mutex total order)")
	flag.IntVar(&o.replicas, "replicas", 2, "replica-set size: one primary plus n-1 backups on balanced fault domains")
	flag.IntVar(&o.quorum, "quorum", 0, "output-commit quorum counting the primary (0 = majority of the set)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "ftsim:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	kind, err := chaos.ParseFaultKind(o.fault)
	if err != nil {
		return err
	}
	tcp := core.DefaultConfig(o.seed).TCP
	tcp.MSS = 32 << 10
	opts := []core.Option{
		core.WithSeed(o.seed),
		core.WithTCP(tcp),
		func(c *core.Config) { c.Replication.StrictOutputCommit = !o.relaxed },
		core.WithRejoinDelay(o.rejoinDelay),
		core.WithDetShards(o.shards),
	}
	if o.replicas != 2 {
		opts = append(opts, core.WithReplicaSet(o.replicas))
	}
	if o.quorum != 0 {
		opts = append(opts, func(c *core.Config) { c.Quorum = o.quorum })
	}
	if o.chaosSpec != "" {
		spec := o.chaosSpec
		if preset, ok := chaos.Presets[spec]; ok {
			spec = preset
		}
		sched, err := chaos.Parse(spec)
		if err != nil {
			return err
		}
		fmt.Printf("chaos schedule: %s\n", sched)
		opts = append(opts, func(c *core.Config) { c.Chaos, c.ChaosSeed = sched, o.chaosSeed })
	}
	if o.trace != "" || o.events != "" {
		opts = append(opts, core.WithTrace())
	}
	sys, err := core.New(opts...)
	if err != nil {
		return err
	}
	defer sys.Sim.Shutdown()
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		return err
	}
	scfg := restream.Config{Port: 80, Chunk: 256 << 10, Total: int(o.size)}
	sys.Run(core.App{Name: "stream", State: func() core.AppState { return restream.New(scfg) }})
	var dl clients.DownloadStats
	clients.Download(client, scfg.Port, o.size, time.Second, &dl)
	if o.chaosSpec == "" && o.failAt > 0 {
		fmt.Printf("will inject %v on the primary at t=%v\n", kind, o.failAt)
		sys.InjectPrimaryFailure(o.failAt, kind)
	}
	if err := sys.Sim.Run(); err != nil {
		return err
	}
	for _, s := range dl.Series {
		fmt.Printf("t=%5.0fs %8.0f Mb/s\n", s.At.Seconds(), s.Mbps())
	}
	fmt.Printf("\nreceived %d/%d bytes  complete=%v corrupted=%v\n", dl.Received, o.size, dl.Complete, dl.Corrupted)
	if sys.FailedAt != 0 {
		fmt.Printf("last failure declared at %v; failover complete at %v\n", sys.FailedAt, sys.LiveAt)
	}
	if inj := sys.Injector(); inj != nil {
		fmt.Printf("chaos: %d kills, %d transfer faults injected\n", inj.Kills, inj.Injected)
	}
	fmt.Printf("lifecycle: state=%v generation=%d", sys.State(), sys.Generation())
	if err := sys.RejoinErr(); err != nil {
		fmt.Printf(" rejoin-error=%q", err)
	}
	fmt.Println()
	if drop := sys.Fabric.Stats().Dropped; drop > 0 {
		fmt.Printf("faults dropped %d in-flight mailbox messages; stream still intact: %v\n",
			drop, !dl.Corrupted && dl.Complete)
	}
	st := sys.Fabric.Stats()
	fmt.Printf("inter-replica traffic: %d messages, %.1f MB (peak ring occupancy %d B)\n",
		st.Messages, float64(st.Bytes)/1e6, st.HighWaterBytes)
	if sys.Flight != nil {
		if o.flight != "" {
			f, err := os.Create(o.flight)
			if err != nil {
				return err
			}
			sys.Flight.Tail(200).WriteText(f)
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote flight-recorder dump to %s\n", o.flight)
		} else {
			fmt.Println()
			sys.Flight.Tail(40).WriteText(os.Stdout)
		}
	}
	if o.trace != "" {
		f, err := os.Create(o.trace)
		if err != nil {
			return err
		}
		if err := sys.Obs.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events); open it at https://ui.perfetto.dev\n",
			o.trace, len(sys.Obs.Events()))
	}
	if o.events != "" {
		f, err := os.Create(o.events)
		if err != nil {
			return err
		}
		if err := sys.Obs.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events); diagnose it with ftdiag\n",
			o.events, len(sys.Obs.Events()))
	}
	if !dl.Complete || dl.Corrupted {
		return fmt.Errorf("client-visible stream was damaged")
	}
	if o.chaosSpec != "" && sys.State() == core.StateFailed {
		return fmt.Errorf("deployment ended in the failed state")
	}
	if err := sys.RejoinErr(); err != nil {
		return fmt.Errorf("rejoin failed: %w", err)
	}
	return nil
}

// Command ftbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	ftbench -exp all            # every experiment (slow: full-size runs)
//	ftbench -exp fig1           # §2.3 memory occupancy
//	ftbench -exp fig4 -quick    # §4.1 PBZIP2 throughput (reduced sweep)
//	ftbench -exp fig5           # §4.1 inter-replica traffic
//	ftbench -exp fig6 / fig7    # §4.2 Mongoose throughput / traffic
//	ftbench -exp mixed          # §4.3 replicated + non-replicated mix
//	ftbench -exp fig8           # §4.4 failover transfer
//	ftbench -exp latency        # §1 intra- vs inter-machine latency
//	ftbench -exp faults         # §2.2 fault outcome sweep
//	ftbench -exp ablations      # design-choice ablations
//	ftbench -exp batching       # log batching sweep (-batches 1,8,32 -json out.json)
//	ftbench -exp detshard       # per-object sequencing sweep (-shards 4 -threads 1,2,4,8,16)
//	ftbench -exp fabric         # shm lock-free fabric + adaptive batching (-threads 1,2,4,8 -batches 1,4,16,32)
//	ftbench -exp nway           # replica-set sweep: commit wait vs quorum rule (-json BENCH_nway.json)
//	ftbench -exp epoch          # epoch checkpoints: rejoin time + log retention vs uptime (-json BENCH_epoch.json)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

var (
	batchSizes  = flag.String("batches", "1,8,32", "comma-separated BatchTuples sizes for -exp batching")
	jsonOut     = flag.String("json", "", "also write the selected sweep (batching, detshard) as JSON to this file")
	shardCount  = flag.String("shards", "4", "DetShards setting compared against 1 for -exp detshard")
	threadSweep = flag.String("threads", "1,2,4,8,16", "comma-separated thread counts for -exp detshard")
	gatePath    = flag.String("gate", "", "baseline file (goldens/bench-baselines.json); fail when a detshard/fabric/nway headline ratio regresses past its tolerance")
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig1, fig4, fig5, fig6, fig7, mixed, fig8, latency, faults, ablations, batching, detshard, fabric, critpath, nway, epoch")
	seed := flag.Int64("seed", 1, "simulation seed")
	quick := flag.Bool("quick", false, "reduced sweeps / scaled-down inputs")
	flag.Parse()
	if err := run(*exp, *seed, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "ftbench:", err)
		os.Exit(1)
	}
}

func run(exp string, seed int64, quick bool) error {
	all := exp == "all"
	ran := false
	for _, e := range []struct {
		name string
		fn   func(int64, bool) error
	}{
		{"fig1", fig1},
		{"fig4", fig45},
		{"fig5", fig45},
		{"fig6", fig67},
		{"fig7", fig67},
		{"mixed", mixed},
		{"fig8", fig8},
		{"latency", latency},
		{"faults", faults},
		{"ablations", ablations},
		{"batching", batching},
		{"detshard", detshard},
		{"fabric", fabric},
		{"critpath", critpath},
		{"nway", nway},
		{"epoch", epoch},
	} {
		if !all && exp != e.name {
			continue
		}
		// fig4/fig5 (and fig6/fig7) share one run; avoid doing it twice
		// under -exp all.
		if all && (e.name == "fig5" || e.name == "fig7") {
			continue
		}
		if err := e.fn(seed, quick); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func fig1(seed int64, quick bool) error {
	fmt.Println("== Figure 1: physical-memory occupancy under memcached (64 cores, 96 GB) ==")
	rows, err := bench.Fig1(bench.Fig1Multipliers())
	if err != nil {
		return err
	}
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			fmt.Sprintf("%dx", r.Multiplier),
			bench.F1(r.Ignored), bench.F1(r.Delayed), bench.F1(r.User), bench.F1(r.Free),
		})
	}
	bench.Table(os.Stdout, []string{"input", "ignored%", "delayed%", "user%", "free%"}, table)
	fmt.Println("paper @180x: ignored ~15%, delayed ~20% (kernel total ~35%)")
	fmt.Println()
	return nil
}

func fig45(seed int64, quick bool) error {
	fmt.Println("== Figures 4+5: PBZIP2, 1 GB file, 32 workers, block-size sweep ==")
	opts := bench.DefaultPBZIPOpts()
	opts.Seed = seed
	sizes := bench.PBZIPBlockKBs()
	if quick {
		sizes = []int{25, 40, 50, 75, 100, 400, 900}
		opts.Window = 8 * time.Second
	}
	points, err := bench.PBZIP(sizes, opts)
	if err != nil {
		return err
	}
	var table [][]string
	for _, p := range points {
		table = append(table, []string{
			fmt.Sprintf("%dKB", p.BlockKB),
			bench.F0(p.Ubuntu), bench.F0(p.FTBurst), bench.F0(p.FTSustained),
			bench.F1(p.PctOfUbuntu),
			bench.F0(p.MsgPerSec), bench.F1(p.BytesPerSec / 1e6),
		})
	}
	bench.Table(os.Stdout, []string{"block", "ubuntu bl/s", "ft-burst", "ft-sustained", "% of ubuntu", "msg/s", "MB/s"}, table)
	fmt.Println("paper @50KB: 1113 blocks/s sustained (~80% of Ubuntu), ~34k msg/s, 4.3 MB/s;")
	fmt.Println("burst tracks Ubuntu below 50KB while sustained drops (replay bottleneck)")
	fmt.Println()
	return nil
}

func fig67(seed int64, quick bool) error {
	fmt.Println("== Figures 6+7: Mongoose, 10 KB page, 100 connections, CPU-load sweep ==")
	opts := bench.DefaultMongooseOpts()
	opts.Seed = seed
	if quick {
		opts.Window = 4 * time.Second
	}
	points, err := bench.Mongoose(opts)
	if err != nil {
		return err
	}
	var table [][]string
	for _, p := range points {
		table = append(table, []string{
			fmt.Sprintf("%d (%v)", p.Step, p.CPULoad),
			bench.F0(p.Ubuntu), bench.F0(p.FTBurst), bench.F0(p.FTSustained),
			bench.F1(p.PctOfUbuntu),
			bench.F0(p.MsgPerSec), bench.F1(p.BytesPerSec / 1e6),
		})
	}
	bench.Table(os.Stdout, []string{"cpu step", "ubuntu req/s", "ft-burst", "ft-sustained", "% of ubuntu", "msg/s", "MB/s"}, table)
	fmt.Println("paper: FT within 20% of Ubuntu below ~1500 req/s; ~60% under high")
	fmt.Println("load of short requests; burst also degrades (network I/O sync)")
	fmt.Println()
	return nil
}

func mixed(seed int64, quick bool) error {
	fmt.Println("== §4.3: replicated Mongoose + non-replicated CPU hog (32-core primary, 1-core secondary) ==")
	opts := bench.DefaultMixedOpts()
	opts.Seed = seed
	if quick {
		opts.Window = 5 * time.Second
	}
	r, err := bench.Mixed(opts)
	if err != nil {
		return err
	}
	bench.Table(os.Stdout,
		[]string{"system", "req/s", "latency"},
		[][]string{
			{"ubuntu", bench.F0(r.UbuntuRPS), r.UbuntuLat.String()},
			{"ft-linux", bench.F0(r.FTRPS), r.FTLat.String()},
			{"ratio", bench.F1(r.PctRPS) + "%", "+" + bench.F1(r.PctLatency) + "%"},
		})
	fmt.Println("paper: 760 vs 700 req/s (91%), 1.3 vs 1.4 ms (+8%)")
	fmt.Println()
	return nil
}

func fig8(seed int64, quick bool) error {
	fmt.Println("== Figure 8: file transfer over 1 Gb/s with mid-transfer failover ==")
	opts := bench.DefaultFig8Opts()
	opts.Seed = seed
	if quick {
		opts = bench.QuickFig8Opts()
		opts.Seed = seed
	}
	r, err := bench.Fig8(opts)
	if err != nil {
		return err
	}
	bench.Table(os.Stdout,
		[]string{"scenario", "Mb/s"},
		[][]string{
			{"linux", bench.F0(r.UbuntuMbps)},
			{"ft-linux", fmt.Sprintf("%s (%.1f%% of linux)", bench.F0(r.FTMbps), r.PctFT)},
			{"failover: outage", fmt.Sprintf("%.0fs (driver reload %.0f%% of it)", r.OutageSeconds, 100*r.DriverShare)},
			{"failover: recovered", bench.F0(r.RecoveredMbps)},
		})
	fmt.Printf("transfer complete=%v corrupted=%v connection-survived=%v\n",
		r.Complete, r.Corrupted, r.ConnectionAlive)
	fmt.Println("throughput over time (failover run):")
	for _, s := range r.FailoverSeries {
		mb := float64(s.Bytes) * 8 / 1e6
		fmt.Printf("  t=%4.0fs %7.0f Mb/s\n", s.At.Seconds(), mb)
	}
	fmt.Println("paper: FT ~85% of Ubuntu failure-free; ~5s outage (99% NIC driver")
	fmt.Println("reload); connection survives and recovers to the Ubuntu rate")
	fmt.Println()
	return nil
}

func latency(seed int64, quick bool) error {
	fmt.Println("== §1: intra-machine vs inter-machine message propagation ==")
	r, err := bench.IntraVsInterLatency(seed, 1000)
	if err != nil {
		return err
	}
	bench.Table(os.Stdout, []string{"path", "one-way delay"}, [][]string{
		{"shared-memory mailbox", r.IntraMachine.String()},
		{"LAN", r.InterMachine.String()},
		{"ratio", fmt.Sprintf("%.0fx", r.Ratio)},
	})
	fmt.Println("paper (Guerraoui et al.): 0.55us vs 135us (~245x)")
	w, err := bench.WakeLatency(seed, 500)
	if err != nil {
		return err
	}
	fmt.Printf("wake_up_process model: busy hand-off %v; idle(5ms) wake avg %v max %v;\n"+
		"  long-idle(400ms) wake avg %v max %v (the paper's tens-of-ms case)\n",
		w.BusyHandoff, w.IdleWakeAvg, w.IdleWakeMax, w.DeepIdleAvg, w.DeepIdleMax)
	fmt.Println()
	return nil
}

func faults(seed int64, quick bool) error {
	fmt.Println("== §2.2: outcome of a random memory error (stock Linux, memcached load) ==")
	var table [][]string
	for _, mult := range []int{3, 90, 180} {
		for _, corrected := range []bool{false, true} {
			r, err := bench.FaultOutcomes(mult, 20000, corrected, seed)
			if err != nil {
				return err
			}
			kind := "DUE"
			if corrected {
				kind = "CE"
			}
			table = append(table, []string{
				fmt.Sprintf("%dx/%s", mult, kind),
				bench.F1(100 * r.KernelPanic), bench.F1(100 * r.Delayed),
				bench.F1(100 * r.UserKill), bench.F1(100 * r.None),
			})
		}
	}
	bench.Table(os.Stdout, []string{"load/kind", "kernel-panic%", "delayed%", "user-kill%", "absorbed%"}, table)
	fmt.Println("paper: at 180x, ~15% of DUEs panic the kernel, ~20% are delayed")
	fmt.Println()
	return nil
}

func ablations(seed int64, quick bool) error {
	fmt.Println("== Ablations ==")
	rows, err := bench.Ablations(seed, quick)
	if err != nil {
		return err
	}
	bench.Table(os.Stdout, []string{"ablation", "configuration", "result"}, rows)
	fmt.Println()
	return nil
}

func batching(seed int64, quick bool) error {
	fmt.Println("== Log batching: mailbox traffic vs Config.BatchTuples (pbzip2-style det sections) ==")
	var sizes []int
	for _, f := range strings.Split(*batchSizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -batches entry %q", f)
		}
		sizes = append(sizes, n)
	}
	opts := bench.DefaultBatchSweepOpts()
	opts.Seed = seed
	if quick {
		opts.Blocks = 24
	}
	points, err := bench.BatchSweep(sizes, opts)
	if err != nil {
		return err
	}
	var table [][]string
	for _, p := range points {
		table = append(table, []string{
			fmt.Sprintf("%d", p.BatchTuples),
			fmt.Sprintf("%d", p.Tuples),
			fmt.Sprintf("%d", p.Messages),
			fmt.Sprintf("%d", p.Bytes),
			fmt.Sprintf("%d", p.AckMessages),
			bench.F1(p.MsgPct), bench.F1(p.BytePct),
			bench.F1(p.SimMS),
			fmt.Sprintf("%d", p.Divergences),
		})
	}
	bench.Table(os.Stdout,
		[]string{"batch", "tuples", "messages", "bytes", "acks", "msg%", "byte%", "sim ms", "div"},
		table)
	fmt.Println("tuples and sim time must not move with the batch size; messages and")
	fmt.Println("bytes (64B headers included) drop as tuples share slot headers")
	if *jsonOut != "" {
		data, err := json.MarshalIndent(points, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *jsonOut)
	}
	fmt.Println()
	return nil
}

func detshard(seed int64, quick bool) error {
	fmt.Println("== Per-object sequencing: commit wait and replay lag vs det shards ==")
	opts := bench.DefaultDetShardOpts()
	opts.Seed = seed
	n, err := strconv.Atoi(strings.TrimSpace(*shardCount))
	if err != nil || n < 2 {
		return fmt.Errorf("bad -shards %q (need an integer >= 2)", *shardCount)
	}
	opts.Shards = n
	var threads []int
	for _, f := range strings.Split(*threadSweep, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return fmt.Errorf("bad -threads entry %q", f)
		}
		threads = append(threads, v)
	}
	opts.Threads = threads
	if quick {
		// Trim the sweep, not the per-point workload: the commit-wait
		// distribution only becomes interesting once the bounded log ring
		// saturates, which needs the full iteration count.
		opts.Threads = []int{1, 8}
	}
	report, err := bench.DetShard(opts)
	if err != nil {
		return err
	}
	var table [][]string
	for _, p := range report.Points {
		table = append(table, []string{
			p.Workload,
			fmt.Sprintf("%d", p.Threads),
			fmt.Sprintf("%d", p.Shards),
			fmt.Sprintf("%d", p.Sections),
			fmt.Sprintf("%dus", p.CommitWaitP50/1000),
			fmt.Sprintf("%d", p.ReplayLagP50),
			fmt.Sprintf("%dus", p.ShardWaitP50/1000),
			bench.F1(p.SimMS),
			fmt.Sprintf("%d", p.Divergences),
		})
	}
	bench.Table(os.Stdout,
		[]string{"workload", "threads", "shards", "sections", "commit p50", "lag p50", "shard-wait p50", "sim ms", "div"},
		table)
	fmt.Printf("at %d threads, independent locks: commit-wait p50 %.1fx lower, replay-lag p50 %.1fx lower at %d shards vs 1\n",
		report.MeasuredAt, report.CommitWaitSpeedup, report.ReplayLagSpeedup, report.Shards)
	fmt.Println("the shared-lock rows are the control: one sequencing object, so sharding")
	fmt.Println("must not change sections or sim time")
	if *gatePath != "" {
		b, err := bench.LoadBaselines(*gatePath)
		if err != nil {
			return err
		}
		if v := b.GateDetShard(report); len(v) != 0 {
			return gateFailure("detshard", v)
		}
		fmt.Println("gate: detshard ratios within tolerance of", *gatePath)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *jsonOut)
	}
	fmt.Println()
	return nil
}

func nway(seed int64, quick bool) error {
	fmt.Println("== Replica sets: output-commit wait vs quorum rule over a lagged backup link ==")
	opts := bench.DefaultNWayOpts()
	opts.Seed = seed
	if quick {
		// Trim the sweep to the sizes the gate ratio reads; keep the
		// per-point workload so the commit-wait distributions stay
		// comparable to the pinned full-sweep baselines.
		opts.Replicas = []int{2, 3}
	}
	report, err := bench.NWay(opts)
	if err != nil {
		return err
	}
	var table [][]string
	for _, p := range report.Points {
		table = append(table, []string{
			fmt.Sprintf("%d", p.Replicas),
			fmt.Sprintf("%d (%s)", p.Quorum, p.Rule),
			fmt.Sprintf("%d", p.Sections),
			fmt.Sprintf("%d", p.Commits),
			fmt.Sprintf("%dus", p.CommitWaitMean/1000),
			fmt.Sprintf("%dus", p.CommitWaitP50/1000),
			fmt.Sprintf("%dus", p.CommitWaitP90/1000),
			bench.F1(p.SimMS),
			fmt.Sprintf("%d", p.Divergences),
		})
	}
	bench.Table(os.Stdout,
		[]string{"replicas", "quorum", "sections", "commits", "wait mean", "wait p50", "wait p90", "sim ms", "div"},
		table)
	fmt.Printf("one backup link lagged %dus per transfer; at N=3, the all-replicas rule pays %.1fx the majority quorum's mean commit wait\n",
		report.LagUS, report.CommitWaitSpeedupN3)
	if *gatePath != "" {
		b, err := bench.LoadBaselines(*gatePath)
		if err != nil {
			return err
		}
		if v := b.GateNWay(report); len(v) != 0 {
			return gateFailure("nway", v)
		}
		fmt.Println("gate: nway ratios within tolerance of", *gatePath)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *jsonOut)
	}
	fmt.Println()
	return nil
}

func epoch(seed int64, quick bool) error {
	fmt.Println("== Epoch checkpoints: rejoin time and log retention vs uptime ==")
	opts := bench.DefaultEpochOpts()
	opts.Seed = seed
	if quick {
		// Trim the sweep to its endpoints: the headline ratios only read
		// the shortest and longest uptimes, so the gate stays meaningful.
		opts.Uptimes = []time.Duration{opts.Uptimes[0], opts.Uptimes[len(opts.Uptimes)-1]}
	}
	report, err := bench.Epoch(opts)
	if err != nil {
		return err
	}
	var table [][]string
	for _, p := range report.Points {
		mode := "off"
		if p.Epochs {
			mode = "on"
		}
		table = append(table, []string{
			fmt.Sprintf("%.0fs", p.UptimeS),
			mode,
			bench.F1(p.RejoinMS),
			fmt.Sprintf("%d", p.CatchupMessages),
			fmt.Sprintf("%d", p.RetainedTuplesAtKill),
			fmt.Sprintf("%d", p.RetainedBytesAtKill),
			fmt.Sprintf("%d", p.EpochCuts),
			fmt.Sprintf("%dus", p.PauseP90/1000),
			fmt.Sprintf("%d", p.Divergences),
		})
	}
	bench.Table(os.Stdout,
		[]string{"uptime", "epochs", "rejoin ms", "catchup msgs", "retained tuples", "retained bytes", "cuts", "pause p90", "div"},
		table)
	fmt.Printf("at %.0fs uptime: epoch seeding rejoins %.1fx faster and retains %.1fx fewer tuples;\n",
		report.Points[len(report.Points)-1].UptimeS, report.RejoinSpeedup, report.RetentionSavings)
	fmt.Printf("rejoin growth over the swept uptimes: %.2fx off vs %.2fx on (flatness gain %.1fx)\n",
		report.RejoinGrowthOff, report.RejoinGrowthOn, report.FlatnessGain)
	if *gatePath != "" {
		b, err := bench.LoadBaselines(*gatePath)
		if err != nil {
			return err
		}
		if v := b.GateEpoch(report); len(v) != 0 {
			return gateFailure("epoch", v)
		}
		fmt.Println("gate: epoch ratios within tolerance of", *gatePath)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *jsonOut)
	}
	fmt.Println()
	return nil
}

func gateFailure(sweep string, violations []string) error {
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "gate:", v)
	}
	return fmt.Errorf("%s: %d headline ratio(s) regressed past the pinned baseline", sweep, len(violations))
}

func critpath(seed int64, quick bool) error {
	fmt.Println("== Critical-path attribution: where committed-output time goes, per stage ==")
	opts := bench.DefaultCritPathOpts()
	opts.Seed = seed
	report, err := bench.CritPath(opts)
	if err != nil {
		return err
	}
	for _, p := range report.Points {
		fmt.Printf("-- %s: %d threads, %d shards (%d outputs, %d events; dominant: %s)\n",
			p.Workload, p.Threads, p.Shards, p.Outputs, p.Events, p.DominantStage)
		var table [][]string
		for _, st := range p.Stages {
			table = append(table, []string{
				st.Stage,
				fmt.Sprintf("%d", st.Count),
				fmt.Sprintf("%d", st.P50),
				fmt.Sprintf("%d", st.P90),
				fmt.Sprintf("%d", st.P99),
				fmt.Sprintf("%d", st.MaxNs),
				fmt.Sprintf("%d", st.TotalNs),
			})
		}
		bench.Table(os.Stdout,
			[]string{"stage", "nonzero", "p50 ns", "p90 ns", "p99 ns", "max ns", "total ns"},
			table)
	}
	fmt.Println("sharding should move the bottleneck off replay-grant; the sustained fabric")
	fmt.Println("workload should be commit-wait dominated (bounded-ring backlog)")
	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *jsonOut)
	}
	fmt.Println()
	return nil
}

func fabric(seed int64, quick bool) error {
	fmt.Println("== Shared-memory fabric: lock-free reservation and adaptive batching ==")
	opts := bench.DefaultFabricOpts()
	opts.Seed = seed
	// -threads and -batches override the fabric defaults only when given
	// explicitly: their flag defaults are tuned for detshard/batching.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "threads":
			opts.Threads = nil
			for _, v := range strings.Split(*threadSweep, ",") {
				if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && n >= 1 {
					opts.Threads = append(opts.Threads, n)
				}
			}
		case "batches":
			opts.StaticBatches = nil
			for _, v := range strings.Split(*batchSizes, ",") {
				if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && n >= 1 {
					opts.StaticBatches = append(opts.StaticBatches, n)
				}
			}
		}
	})
	if len(opts.Threads) == 0 {
		return fmt.Errorf("bad -threads %q", *threadSweep)
	}
	if quick {
		// Trim the sweep, not the per-point workload: the sustained regime
		// needs the full iteration count to saturate the bounded ring.
		opts.Threads = []int{1, 8}
		opts.StaticBatches = []int{1, 32}
	}
	report, err := bench.Fabric(opts)
	if err != nil {
		return err
	}
	var table [][]string
	for _, p := range report.Points {
		table = append(table, []string{
			p.Workload, p.Mode,
			fmt.Sprintf("%d", p.Threads),
			fmt.Sprintf("%d", p.BatchTuples),
			fmt.Sprintf("%d", p.Tuples),
			fmt.Sprintf("%d", p.Messages),
			bench.F1(p.SendWaitMS),
			fmt.Sprintf("%d", p.ReserveWaits),
			fmt.Sprintf("%dus", p.CommitWaitP50/1000),
			fmt.Sprintf("%d", p.EffBatchEnd),
			bench.F1(p.SimMS),
			fmt.Sprintf("%d", p.Divergences),
		})
	}
	bench.Table(os.Stdout,
		[]string{"workload", "mode", "threads", "batch", "tuples", "messages", "wait ms", "rsv waits", "commit p50", "eff", "sim ms", "div"},
		table)
	fmt.Printf("adaptive vs best static batch: %.2fx completion (sustained), %.2fx transfers (burst), %.1fx fewer transfers than its starting batch\n",
		report.AdaptiveVsBestStaticSustained, report.AdaptiveVsBestStaticBurst, report.AdaptiveMsgSavingsBurst)
	if *gatePath != "" {
		b, err := bench.LoadBaselines(*gatePath)
		if err != nil {
			return err
		}
		if v := b.GateFabric(report); len(v) != 0 {
			return gateFailure("fabric", v)
		}
		fmt.Println("gate: fabric ratios within tolerance of", *gatePath)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *jsonOut)
	}
	fmt.Println()
	return nil
}

// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§2.3 Figure 1, §4.1 Figures 4-5, §4.2
// Figures 6-7, §4.3 mixed workload, §4.4 Figure 8), the §1 motivation
// microbenchmark, the fault-model sweep of §2.2, the ablations, and the
// five sweeps behind the extensions (batching, detshard, critpath, nway,
// epoch). Every experiment is an entry of Experiments and returns
// the one Report type; cmd/ftbench is a loop over that registry, and
// experiments.json records every report it writes at seed 1.
package bench

import (
	"time"

	"repro/internal/shm"
	"repro/internal/sim"
)

// Experiment is one -exp name of ftbench.
type Experiment struct {
	Name string
	// Also is a second name for the same run: fig5 is the traffic columns
	// of fig4's sweep, fig7 those of fig6's.
	Also  string
	Title string
	// Notes are printed under the table: how to read the columns, and what
	// the paper reports beyond the numbers its claims hold (claims_test.go).
	Notes []string
	// Run measures the experiment. quick shortens the simulated windows
	// of the paper figures (Figure 8 alone is a 10 GB transfer); the five
	// sweeps take seconds and ignore it, because the checked-in reports
	// are only comparable at full size.
	Run func(seed int64, quick bool) (Report, error)
}

// window picks the measured interval of a paper figure.
func window(quick bool, short, full time.Duration) time.Duration {
	if quick {
		return short
	}
	return full
}

// Experiments lists every experiment, in the order of ftbench -exp all.
var Experiments = []Experiment{
	{
		Name:  "fig1",
		Title: "Figure 1: physical-memory occupancy under memcached (64 cores, 96 GB)",
		Run:   fig1,
	},
	{
		Name: "fig4", Also: "fig5",
		Title: "Figures 4+5: PBZIP2, 1 GB file, 32 workers, block-size sweep",
		Notes: []string{
			"paper @50KB: 1113 blocks/s sustained; burst tracks Ubuntu below 50KB",
			"while sustained drops (replay bottleneck)",
		},
		Run: func(seed int64, quick bool) (Report, error) {
			if quick { // a reduced x-axis, with a 40 KB point to resolve the knee
				return pbzip(seed, []int{25, 40, 50, 75, 100, 400, 900}, 8*time.Second)
			}
			return pbzip(seed, []int{25, 50, 75, 100, 200, 400, 600, 900}, 12*time.Second)
		},
	},
	{
		Name: "fig6", Also: "fig7",
		Title: "Figures 6+7: Mongoose, 10 KB page, 100 connections, CPU-load sweep",
		Notes: []string{"paper: burst also degrades under high load (network I/O sync)"},
		Run:   mongooseSweep,
	},
	{
		Name:  "mixed",
		Title: "§4.3: replicated Mongoose + non-replicated CPU hog (32-core primary, 1-core secondary)",
		Notes: []string{"paper: 760 vs 700 req/s, 1.3 vs 1.4 ms"},
		Run:   mixed,
	},
	{
		Name:  "fig8",
		Title: "Figure 8: file transfer over 1 Gb/s with mid-transfer failover",
		Notes: []string{
			"one row per second of the failover run; the client verified every byte",
			"paper: the connection survives and recovers to the Ubuntu rate",
		},
		Run: func(seed int64, quick bool) (Report, error) {
			if quick {
				return fig8(seed, 1<<30, 4*time.Second)
			}
			// The paper's 10 GB file, the failure one third into the transfer.
			return fig8(seed, 10<<30, 30*time.Second)
		},
	},
	{
		Name:  "latency",
		Title: "§1: intra-machine vs inter-machine message propagation, and the wake_up_process model",
		Notes: []string{
			"paper (Guerraoui et al.): 0.55us vs 135us",
			"the 400ms rows are the paper's tens-of-ms wake-up case",
		},
		Run: latency,
	},
	{
		Name:  "faults",
		Title: "§2.2: outcome of a random memory error (stock Linux, memcached load)",
		Run:   faults,
	},
	{
		Name:  "ablations",
		Title: "Ablations",
		Notes: []string{
			"rate_s is what the configuration names (req/s or sustained blocks/s);",
			"latency is measured on the Mongoose rows, blocks on the PBZIP2 rows",
		},
		Run: ablations,
	},
	{
		Name:  "batching",
		Title: "Log batching: mailbox traffic and commit wait vs Config.BatchTuples",
		Notes: []string{
			"pbzip2: blocks, workers and commit_every; detshard: detshard's independent-lock",
			"cell at detshard_threads, one det shard and log_ring_bytes (blocks read 0)",
			"tuples must not move with the batch size; messages and bytes (64B headers",
			"included) drop as tuples share slot headers; on the bounded ring the",
			"commit wait grows with the batch, the backlog's depth in tuples",
		},
		Run: batching,
	},
	{
		Name:  "detshard",
		Title: "Per-object sequencing: commit wait and replay lag vs det shards",
		Notes: []string{
			"ratios: independent locks at measured_at_threads, 1 shard over 4",
			"the shared-lock rows are the control: one sequencing object, so sharding",
			"must not change sections or sim time",
		},
		Run: detShard,
	},
	{
		Name:  "critpath",
		Title: "Critical-path attribution: where committed-output time goes, per stage",
		Notes: []string{
			"one shard should be commit-wait dominated (bounded-ring backlog);",
			"sharding should move the bottleneck off replay-grant and commit-wait",
		},
		Run: critPath,
	},
	{
		Name:  "nway",
		Title: "Replica sets: output-commit wait vs quorum rule over a lagged backup link",
		Notes: []string{"ratio: at N=3, the all-replicas rule's mean commit wait over the majority quorum's"},
		Run:   nway,
	},
	{
		Name:  "epoch",
		Title: "Epoch checkpoints: rejoin time and log retention vs uptime",
		Notes: []string{
			"speedup and savings: off over on at the longest uptime; growth: longest over",
			"shortest uptime per mode; flatness_gain = growth_off / growth_on",
		},
		Run: func(seed int64, _ bool) (Report, error) { // a 4x uptime range
			return epoch(seed, []time.Duration{4 * time.Second, 8 * time.Second, 16 * time.Second}, 4*time.Second)
		},
	},
}

// Lookup returns the experiment that answers to name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if name == e.Name || (e.Also != "" && name == e.Also) {
			return e, true
		}
	}
	return Experiment{}, false
}

// rateIn measures a rate over [from, to) of virtual time from a series of
// event timestamps.
func rateIn(times []sim.Time, from, to sim.Time) float64 {
	n := 0
	for _, t := range times {
		if t >= from && t < to {
			n++
		}
	}
	return float64(n) / to.Sub(from).Seconds()
}

// trafficRate computes message and byte rates between two fabric snapshots.
func trafficRate(before, after shm.Stats, window time.Duration) (msgs, bytes float64) {
	s := window.Seconds()
	return float64(after.Messages-before.Messages) / s, float64(after.Bytes-before.Bytes) / s
}

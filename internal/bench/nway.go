package bench

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/shm"
)

// nwayLag is the per-transfer delivery lag on one backup's log link — far
// above the shared-memory fabric's native transfer latency, so the
// quorum-versus-all split dominates every other latency term in the
// commit wait.
const nwayLag = 300 * time.Microsecond

// nwayLoop is the workload every replica runs.
var nwayLoop = lockLoop{threads: 4, locks: 4, iters: 400, think: thinkUS(50, 100), contend: true, commitEvery: 4}

// majority is the default quorum core picks for an n-replica set.
func majority(n int) int { return (n + 2) / 2 }

// laggedLogRing names the log ring of the highest backup slot — the link
// the sweep lags. Slot 1 keeps the legacy unsuffixed name; higher slots
// carry the ".r<slot>" suffix.
func laggedLogRing(n int) string {
	if n == 2 {
		return "ftns.log"
	}
	return "ftns.log.r" + strconv.Itoa(n-1)
}

// nway runs the replica-set sweep: for every set size, the same workload
// runs on a full core deployment and commits under the majority quorum and
// under the all-replicas rule (one point where they coincide, as at N=2),
// always with the last backup's log deliveries lagged so its receipt
// watermark trails the rest of the set. The commit-wait distribution then
// shows whether that laggard sits on the output-commit path: under the
// all-replicas rule every OnStable waits out the lag; under a majority
// quorum (at N >= 3) the faster backups' receipts release output and the
// laggard only matters for failover coverage. commit_wait_speedup_n3 is
// the all-replicas mean commit wait over the majority quorum's at N=3.
func nway(seed int64, _ bool) (Report, error) {
	report := Report{Exp: "nway", Seed: seed, Params: []Label{
		label("laggard_lag_us", nwayLag.Microseconds()), label("threads", nwayLoop.threads),
		label("iters", nwayLoop.iters), label("commit_every", nwayLoop.commitEvery)}}
	for _, n := range []int{2, 3, 4, 5} {
		quorums := []int{majority(n)}
		if n > majority(n) {
			quorums = append(quorums, n)
		}
		for _, q := range quorums {
			p, err := nwayPoint(seed, n, q)
			if err != nil {
				return report, fmt.Errorf("bench: nway n=%d q=%d: %w", n, q, err)
			}
			report.Points = append(report.Points, p)
		}
	}
	d := derive{r: &report}
	d.ratio("commit_wait_speedup_n3",
		d.v("commit_wait_mean_ns", "replicas", 3, "quorum", 3),
		d.v("commit_wait_mean_ns", "replicas", 3, "quorum", majority(3)))
	return report, d.err
}

func nwayPoint(seed int64, n, q int) (Point, error) {
	rule := "majority"
	if q == n {
		rule = "all"
	}
	lag := func(sys *core.System) error {
		r, err := ringNamed(sys, laggedLogRing(n))
		if err == nil {
			r.SetChaosHook(func([]shm.Message) shm.ChaosVerdict { return shm.ChaosVerdict{Delay: nwayLag} })
		}
		return err
	}
	run, err := runSweep(seed, core.App{Name: "nway", Main: nwayLoop.run}, lag, core.WithReplicaSet(n), core.WithQuorum(q))
	if err != nil {
		return Point{}, err
	}
	sys, commit := run.sys, run.hist("ftns.commit.wait", false)
	if run.err != nil {
		return Point{}, run.err
	}
	var divergences uint64
	for _, b := range sys.Backups() {
		divergences += b.NS.Stats().Divergences
	}
	return Point{
		Labels: []Label{label("replicas", n), label("quorum", q), label("rule", rule)},
		Values: []Named{
			val("sections", sys.Active().NS.SeqGlobal(), "count"),
			val("commits", commit.Count, "count"), // output-commit (OnStable) requests
			val("commit_wait_mean_ns", commit.Sum/commit.Count, "ns"),
			val("commit_wait_p50_ns", commit.P50, "ns"),
			val("commit_wait_p90_ns", commit.P90, "ns"),
			val("live_backups", len(sys.Backups()), "count"),
			val("divergences", divergences, "count"),
			val("sim_ms", ms(run.finished), "ms"),
		},
	}, nil
}

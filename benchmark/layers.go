package main

import (
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/causal"
	"repro/internal/replication"
)

// clientMetrics turns one run's outcome into the virtual-clock metrics a
// client of the application sees. Everything here repeats exactly for a
// given seed, traced or not.
func clientMetrics(out *outcome, fabricBytes int64) Metrics {
	m := Metrics{}
	m.set("throughput_ops_s", out.throughput())
	m.set("failed_ops_pct", 100*ratio(float64(out.failed), float64(out.attempted)))
	m.set("replica_bytes_per_op", ratio(float64(fabricBytes), out.ops))
	tail := func(name string, sample []time.Duration) {
		if s := sortedCopy(sample); tailSupported(len(s), 99) {
			m.set(name, ms(nearestRank(s, 99)))
		}
	}
	if len(out.lat) > 0 {
		m.set("latency_p50_ms", ms(nearestRank(sortedCopy(out.lat), 50)))
		tail("latency_p99_ms", out.lat)
		tail("read_latency_p99_ms", out.readLat)
		tail("write_latency_p99_ms", out.writeLat)
	}
	for k, v := range out.e2e {
		m.set(k, v)
	}
	return m
}

// hostMetrics are the end-to-end host costs: exact counts per op.
func hostMetrics(m Metrics, out *outcome, cost hostCost) {
	m.set("host_allocs_per_op", ratio(float64(cost.mallocs), out.ops))
	m.set("host_alloc_kb_per_op", ratio(float64(cost.allocBytes)/1024, out.ops))
	m.set("host_switches_per_op", ratio(float64(cost.switches), out.ops))
}

// namespaces returns every namespace of the deployment once: the
// boot-time replica set, then whatever rejoin generations added.
func namespaces(sys *core.System) []*replication.Namespace {
	var out []*replication.Namespace
	seen := make(map[*replication.Namespace]bool)
	add := func(r *core.Replica) {
		if r != nil && !seen[r.NS] {
			seen[r.NS] = true
			out = append(out, r.NS)
		}
	}
	for _, r := range sys.ReplicaSet {
		add(r)
	}
	add(sys.Active())
	for _, r := range sys.Backups() {
		add(r)
	}
	return out
}

// layerMetrics reads every layer's public counters after a replicated
// run. Nothing here reaches inside a layer: accessors, the metrics
// registry, and the harness's own probe and client code only.
func layerMetrics(d *deployment, out *outcome, cost hostCost) Metrics {
	sys := d.srv.sys
	m := Metrics{}

	m.set("sim.switches", float64(cost.switches))
	for i, b := range switchBuckets {
		m.set("sim.switches_"+b, float64(cost.buckets[i]))
	}
	m.set("sim.host_cpu_us_per_op", ratio(us(cost.cpu), out.ops))
	m.set("sim.host_wall_s", cost.wall.Seconds())
	m.set("sim.host_ns_per_switch", ratio(float64(cost.wall), float64(cost.switches)))
	m.set("sim.virt_s_per_host_s", ratio(cost.virtual.Seconds(), cost.wall.Seconds()))
	m.set("sim.heap_sys_mb", float64(cost.heapSys)/(1<<20))

	m.set("kernel.primary_compute_s", sys.Primary.Kernel.ComputeTime().Seconds())
	m.set("kernel.backup_compute_s", sys.Secondary.Kernel.ComputeTime().Seconds())

	// Sections and tuples are counted where they were recorded: the
	// boot-time primary and, after a failover, the promoted survivor.
	var rec, all replication.Stats
	recording := map[*replication.Namespace]bool{sys.Primary.NS: true, sys.Active().NS: true}
	for _, ns := range namespaces(sys) {
		st := ns.Stats()
		all.Divergences += st.Divergences
		all.LogTruncated += st.LogTruncated
		if recording[ns] {
			rec.Sections += st.Sections
			rec.LogMessages += st.LogMessages
			rec.EpochCuts += st.EpochCuts
		}
	}
	m.set("replication.sections_per_op", ratio(float64(rec.Sections), out.ops))
	m.set("replication.log_tuples_per_op", ratio(float64(rec.LogMessages), out.ops))
	m.set("replication.epoch_cuts", float64(rec.EpochCuts))
	m.set("replication.log_truncated", float64(all.LogTruncated))
	m.set("replication.divergences", float64(all.Divergences))

	// Registry histograms have power-of-two buckets: a quantile is its
	// bucket's upper bound, exact to a factor of two and exactly
	// repeatable. Grant wait is reported for the slowest backup.
	snap := sys.Obs.Registry().Snapshot()
	hist := func(name string) obs.HistogramSnap { h, _ := snap.Histogram(name); return h }
	cw, sw, fl := hist("ftns.commit.wait"), hist("ftns.shard.wait"), hist("ftns.flush.lag")
	m.set("replication.commit_wait_p50_us", float64(cw.P50)/1e3)
	m.set("replication.commit_wait_p99_us", float64(cw.P99)/1e3)
	m.set("replication.shard_wait_p99_us", float64(sw.P99)/1e3)
	m.set("replication.flush_lag_p99_tuples", float64(fl.P99))
	var g50, g99 int64
	for _, h := range snap.Histograms {
		if strings.HasSuffix(h.Name, ".grant.wait") {
			g50, g99 = max(g50, h.P50), max(g99, h.P99)
		}
	}
	m.set("replication.grant_wait_p50_us", float64(g50)/1e3)
	m.set("replication.grant_wait_p99_us", float64(g99)/1e3)
	m.set("rejoin.epoch_pause_p90_us", float64(hist("ftns.epoch.pause").P90)/1e3)
	m.set("tcprep.sync_updates_per_batch_p50", float64(hist("tcprep.sync.batch").P50))

	lag := sortedCopy(d.probe.lag)
	m.set("replication.replay_lag_p50_tuples", float64(nearestRank(lag, 50)))
	m.set("replication.replay_lag_max_tuples", float64(nearestRank(lag, 100)))
	m.set("replication.retained_tuples_max", float64(d.probe.retainedMax))

	// Fabric traffic by ring class.
	msgs := make(map[string]int64)
	bytes := make(map[string]int64)
	var logHigh, logPayloads int64
	for _, r := range sys.Fabric.PerRing() {
		for _, rc := range ringClasses {
			if strings.HasPrefix(r.Name, rc.prefix) {
				msgs[rc.class] += r.Messages
				bytes[rc.class] += r.Bytes
				if rc.class == "log" {
					logHigh = max(logHigh, r.HighWaterBytes)
					logPayloads += r.Payloads
				}
				break
			}
		}
	}
	for _, rc := range ringClasses {
		m.set("shm."+rc.class+"_msgs_per_op", ratio(float64(msgs[rc.class]), out.ops))
		m.set("shm."+rc.class+"_bytes_per_op", ratio(float64(bytes[rc.class]), out.ops))
	}
	// Tuples per vectored log transfer, over every backup link.
	m.set("replication.tuples_per_batch", ratio(float64(logPayloads), float64(msgs["log"])))
	fs := sys.Fabric.Stats()
	m.set("shm.reserve_waits", float64(fs.ReserveWaits))
	m.set("shm.send_wait_ms", float64(fs.SendWaitNs)/1e6)
	m.set("shm.log_highwater_pct", 100*ratio(float64(logHigh), float64(sys.Cfg.Replication.LogRingBytes)))
	m.set("shm.dropped", float64(fs.Dropped))

	m.set("tcprep.sync_bytes_per_client_byte", ratio(float64(bytes["sync"]), float64(out.clientBytes)))
	conns := 0
	if sb := sys.Standby(); sb != nil && sb.TCPSync != nil {
		conns = sb.TCPSync.Conns()
	}
	m.set("tcprep.backup_conns", float64(conns))

	var pkts, wire, drops int64
	if d.link != nil {
		for end := 0; end < 2; end++ {
			ls := d.link.Stats(end)
			pkts, wire, drops = pkts+ls.Packets, wire+ls.Bytes, drops+ls.Drops
		}
	}
	m.set("simnet.tx_packets_per_op", ratio(float64(pkts), out.ops))
	m.set("simnet.tx_bytes_per_op", ratio(float64(wire), out.ops))
	m.set("simnet.drops", float64(drops))

	for k, v := range out.layer {
		m.set(k, v)
	}
	return m
}

// spanMetrics are the client-side tcpstack phases of the traced run.
func spanMetrics(m Metrics, rec *recorder) {
	for _, phase := range []string{"connect", "first_byte", "body", "close"} {
		m.set("tcpstack."+phase+"_p50_ms", ms(nearestRank(sortedCopy(rec.durations(phase)), 50)))
	}
}

// causalMetrics attributes every committed output of the traced run
// across the six commit-path stages.
func causalMetrics(m Metrics, events []obs.Event) {
	a := causal.Attribute(causal.Build(events))
	m.set("obs.events", float64(len(events)))
	m.set("causal.outputs", float64(len(a.Outputs)))
	var total int64
	for _, st := range a.Stages {
		total += st.TotalNs
	}
	for _, st := range a.Stages {
		m.set("causal."+st.Stage+"_p50_us", float64(st.P50)/1e3)
		m.set("causal."+st.Stage+"_p99_us", float64(st.P99)/1e3)
		m.set("causal."+st.Stage+"_share_pct", 100*ratio(float64(st.TotalNs), float64(total)))
	}
}

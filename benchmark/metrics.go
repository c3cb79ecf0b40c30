package main

import (
	"fmt"
	"sort"

	"repro/internal/obs/causal"
)

// Metric is one reported value. Virtual-clock metrics repeat exactly for
// a given seed; host_* and sim.host_* metrics are measured on the host.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric name to value. encoding/json sorts map keys, so a
// result file is byte-stable for equal values.
type Metrics map[string]Metric

// spec is one catalog entry: the name, unit and direction every report,
// BENCHMARK.json and -compare agree on.
type spec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

const (
	higher = "higher"
	lower  = "lower"
)

// virtualBound is the share by which -compare lets a same-seed virtual
// metric or host count worsen when BENCHMARK.json does not list it;
// setupSlack is the absolute slack on setup_s, whose few milliseconds are
// dominated by host noise.
const (
	virtualBound = 0.02
	setupSlack   = 0.25 // seconds
)

// endToEnd is what a client of the replicated application (virtual
// clock) and a user of the simulator (host_*) sees. everywhere marks the
// metrics defined on all four workloads: only those can be listed under
// end_to_end in BENCHMARK.json, whose contract wants every listed metric
// from every workload and never zero. The workload-specific ones are
// reported here where they apply and mirrored as client.* per-layer
// metrics (zero where not applicable) for the driver.
var endToEnd = []struct {
	spec
	everywhere bool
}{
	{spec{"throughput_ops_s", "1/s", higher}, true},
	{spec{"pct_of_baseline", "%", higher}, true},
	{spec{"latency_p50_ms", "ms", lower}, false},
	{spec{"latency_p99_ms", "ms", lower}, false},
	{spec{"read_latency_p99_ms", "ms", lower}, false},
	{spec{"write_latency_p99_ms", "ms", lower}, false},
	{spec{"outage_s", "s", lower}, false},
	{spec{"rejoin_s", "s", lower}, false},
	{spec{"completion_s", "s", lower}, false},
	{spec{"failed_ops_pct", "%", lower}, false},
	{spec{"replica_bytes_per_op", "B/op", lower}, true},
	{spec{"host_allocs_per_op", "allocs/op", lower}, true},
	{spec{"host_alloc_kb_per_op", "KB/op", lower}, true},
	{spec{"host_switches_per_op", "switches/op", lower}, true},
	{spec{"setup_s", "s", lower}, true},
}

// ringClasses are the shm ring classes reported separately; a ring
// belongs to the first class whose prefix its name carries.
var ringClasses = []struct{ class, prefix string }{
	{"log", "ftns.log"},
	{"sync", "tcprep.sync"},
	{"acks", "ftns.acks"},
	{"hb", "hb."},
	{"bulk", "rejoin.bulk"},
}

// switchBuckets name the sim.switches_* split, indexed by bucket.
var switchBuckets = []string{"app", "replication", "tcprep", "failure", "client", "other"}

const (
	bucketApp = iota
	bucketReplication
	bucketTCPRep
	bucketFailure
	bucketClient
	bucketOther
)

// perLayer lists every per-layer metric, module by module.
var perLayer = buildPerLayer()

func buildPerLayer() []spec {
	l := []spec{
		// sim: what the simulator itself costs on the host.
		{"sim.switches", "count", lower},
	}
	for _, b := range switchBuckets {
		l = append(l, spec{"sim.switches_" + b, "count", lower})
	}
	l = append(l,
		spec{"sim.host_cpu_us_per_op", "us/op", lower},
		spec{"sim.host_wall_s", "s", lower},
		spec{"sim.host_ns_per_switch", "ns", lower},
		spec{"sim.virt_s_per_host_s", "s/s", higher},
		spec{"sim.heap_sys_mb", "MB", lower},

		spec{"kernel.primary_compute_s", "s", lower},
		spec{"kernel.backup_compute_s", "s", lower},

		spec{"replication.sections_per_op", "1/op", lower},
		spec{"replication.log_tuples_per_op", "1/op", lower},
		spec{"replication.tuples_per_batch", "tuples", higher},
		spec{"replication.commit_wait_p50_us", "us", lower},
		spec{"replication.commit_wait_p99_us", "us", lower},
		spec{"replication.shard_wait_p99_us", "us", lower},
		spec{"replication.grant_wait_p50_us", "us", lower},
		spec{"replication.grant_wait_p99_us", "us", lower},
		spec{"replication.flush_lag_p99_tuples", "tuples", lower},
		spec{"replication.replay_lag_p50_tuples", "tuples", lower},
		spec{"replication.replay_lag_max_tuples", "tuples", lower},
		spec{"replication.retained_tuples_max", "tuples", lower},
		spec{"replication.epoch_cuts", "count", higher},
		spec{"replication.log_truncated", "tuples", higher},
		spec{"replication.divergences", "count", lower},
	)
	for _, rc := range ringClasses {
		l = append(l,
			spec{"shm." + rc.class + "_msgs_per_op", "1/op", lower},
			spec{"shm." + rc.class + "_bytes_per_op", "B/op", lower})
	}
	l = append(l,
		spec{"shm.reserve_waits", "count", lower},
		spec{"shm.send_wait_ms", "ms", lower},
		spec{"shm.log_highwater_pct", "%", lower},
		spec{"shm.dropped", "count", lower},

		spec{"tcprep.sync_updates_per_batch_p50", "updates", higher},
		spec{"tcprep.sync_bytes_per_client_byte", "B/B", lower},
		spec{"tcprep.backup_conns", "count", lower},

		spec{"tcpstack.connect_p50_ms", "ms", lower},
		spec{"tcpstack.first_byte_p50_ms", "ms", lower},
		spec{"tcpstack.body_p50_ms", "ms", lower},
		spec{"tcpstack.close_p50_ms", "ms", lower},

		spec{"simnet.tx_packets_per_op", "1/op", lower},
		spec{"simnet.tx_bytes_per_op", "B/op", lower},
		spec{"simnet.drops", "count", lower},

		spec{"failure.detect_ms", "ms", lower},
		spec{"core.failover_ms", "ms", lower},
		spec{"core.driver_reload_share", "share", higher},
		spec{"core.first_byte_after_live_ms", "ms", lower},
		spec{"rejoin.resync_ms", "ms", lower},
		spec{"rejoin.catchup_msgs", "count", lower},
		spec{"rejoin.epoch_pause_p90_us", "us", lower},
		spec{"core.generation", "count", lower},

		spec{"causal.outputs", "count", higher},
	)
	for s := causal.Stage(0); s < causal.NumStages; s++ {
		l = append(l,
			spec{"causal." + s.String() + "_p50_us", "us", lower},
			spec{"causal." + s.String() + "_p99_us", "us", lower},
			spec{"causal." + s.String() + "_share_pct", "%", lower})
	}
	l = append(l,
		spec{"causal.attribute_host_s", "s", lower},
		spec{"obs.events", "count", lower},
		spec{"obs.trace_virtual_drift", "count", lower},
		spec{"obs.trace_host_cpu_overhead_pct", "%", lower},
		spec{"obs.trace_alloc_overhead_pct", "%", lower},
		spec{"client.latency_samples", "count", higher},
	)
	// The client-visible metrics that do not apply to every workload.
	for _, e := range endToEnd {
		if !e.everywhere {
			l = append(l, spec{"client." + e.Name, e.Unit, e.Better})
		}
	}
	return l
}

// specOf finds a metric's catalog entry under either list.
func specOf(name string) (spec, bool) {
	for _, e := range endToEnd {
		if e.Name == name {
			return e.spec, true
		}
	}
	for _, s := range perLayer {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// set stores v under name with the catalog's unit; a name missing from
// the catalog is a bug in the harness, not in the run.
func (m Metrics) set(name string, v float64) {
	s, ok := specOf(name)
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not in the catalog", name))
	}
	m[name] = Metric{Value: v, Unit: s.Unit}
}

// clone returns a copy that can be extended without touching m.
func (m Metrics) clone() Metrics {
	out := make(Metrics, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// names returns the metric names in sorted order.
func (m Metrics) names() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WorkloadResult is one workload's outcome in a report.
type WorkloadResult struct {
	Name           string   `json:"name"`
	Correct        bool     `json:"correct"`
	Attempted      int      `json:"attempted"`
	Failed         int      `json:"failed"`
	Failures       []string `json:"failures,omitempty"`
	LatencySamples int      `json:"latency_samples"`
	EndToEnd       Metrics  `json:"end_to_end,omitempty"`
	PerLayer       Metrics  `json:"per_layer,omitempty"`
}

// Report is the harness's result file (-out), the input of -compare.
type Report struct {
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []WorkloadResult `json:"workloads"`
}

// contractResult is the last line of standard output: the shape the
// benchmark driver reads.
type contractResult struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

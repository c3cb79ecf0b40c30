package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// nominalSeconds is the -seconds value at which every workload runs its
// nominal virtual window (the run_seconds of BENCHMARK.json). Other
// values scale the windows in proportion: what a run measures is fixed in
// virtual time by -seconds and -seed alone, so the virtual metrics do not
// depend on how fast the host is.
const nominalSeconds = 10

// setupReps is how many times a measuring run repeats set-up; setup_s is
// the median. One set-up takes a millisecond or so, which a stray
// collection or scheduler tick doubles: the heap is collected before every
// repeat, and the median of this many is steady to about a tenth between
// processes.
const setupReps = 21

// runOpts selects what one invocation measures.
type runOpts struct {
	seed     int64
	scale    float64
	endToEnd bool   // baseline + untraced replicated run: the end-to-end metrics
	layers   bool   // untraced + traced replicated run: the per-layer metrics
	traceDir string // where the traced run's spans are written ("" = nowhere)
	setups   int    // set-up repeats (setupReps; tests use fewer)
}

// execute drives a deployment and collects its outcome.
func execute(d *deployment) (*outcome, hostCost, error) {
	cost, err := d.drive()
	if err != nil {
		return nil, cost, err
	}
	return d.finish(), cost, nil
}

// runWorkload measures one workload: set-up (repeated), the unreplicated
// baseline, the replicated system untraced, and — for the per-layer
// metrics — the replicated system again under core.WithTrace.
func runWorkload(w workload, o runOpts) (WorkloadResult, error) {
	res := WorkloadResult{Name: w.name}
	rec := newRecorder()
	cfg := buildCfg{seed: o.seed, scale: o.scale}

	var base, repl *deployment
	var err error
	setups := make([]time.Duration, o.setups)
	for i := range setups {
		runtime.GC()
		setups[i] = rec.host("setup", func() {
			c := cfg
			c.mode = modeBaseline
			if base, err = w.build(c); err != nil {
				return
			}
			c.mode = modeReplicated
			repl, err = w.build(c)
		})
		if err != nil {
			return res, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
	}

	var baseOut *outcome
	if o.endToEnd {
		rec.host("run-baseline", func() { baseOut, _, err = execute(base) })
		if err != nil {
			return res, fmt.Errorf("%s: baseline: %w", w.name, err)
		}
	}
	var out *outcome
	var cost hostCost
	rec.host("run", func() { out, cost, err = execute(repl) })
	if err != nil {
		return res, fmt.Errorf("%s: replicated: %w", w.name, err)
	}
	var layers Metrics
	rec.host("snapshot", func() { layers = layerMetrics(repl, out, cost) })
	client := clientMetrics(out, repl.srv.sys.Fabric.Stats().Bytes)

	res.Attempted, res.Failed, res.LatencySamples = out.attempted, out.failed, len(out.lat)
	res.Failures = out.failures
	if n := layers["replication.divergences"].Value; n != 0 {
		res.Failures = append(res.Failures, fmt.Sprintf("%v replay divergences", n))
	}

	if o.endToEnd {
		e := client.clone() // client stays as measured for the drift check
		e.set("pct_of_baseline", 100*ratio(out.throughput(), baseOut.throughput()))
		hostMetrics(e, out, cost)
		e.set("setup_s", nearestRank(sortedCopy(setups), 50).Seconds())
		res.EndToEnd = e
	}

	if o.layers {
		c := cfg
		c.mode, c.rec = modeTraced, rec
		traced, err := w.build(c)
		if err != nil {
			return res, fmt.Errorf("%s: traced set-up: %w", w.name, err)
		}
		var tout *outcome
		var tcost hostCost
		rec.host("run-traced", func() { tout, tcost, err = execute(traced) })
		if err != nil {
			return res, fmt.Errorf("%s: traced: %w", w.name, err)
		}
		res.Failures = append(res.Failures, tout.failures...)
		sys := traced.srv.sys
		attribute := rec.host("attribute", func() { causalMetrics(layers, sys.Obs.Events()) })
		layers.set("causal.attribute_host_s", attribute.Seconds())
		spanMetrics(layers, rec)

		// Tracing must be neutral in virtual time: every client-visible
		// metric of the traced run equals the untraced one exactly.
		tclient := clientMetrics(tout, sys.Fabric.Stats().Bytes)
		drift := 0
		for _, name := range union(client, tclient) {
			if tclient[name] != client[name] {
				drift++
				res.Failures = append(res.Failures, fmt.Sprintf("tracing moved %s: %v untraced, %v traced",
					name, client[name].Value, tclient[name].Value))
			}
		}
		layers.set("obs.trace_virtual_drift", float64(drift))
		layers.set("obs.trace_host_cpu_overhead_pct", 100*ratio(float64(tcost.cpu-cost.cpu), float64(cost.cpu)))
		layers.set("obs.trace_alloc_overhead_pct", // bytes: the retained stream is few, large allocations
			100*ratio(float64(tcost.allocBytes)-float64(cost.allocBytes), float64(cost.allocBytes)))

		layers.set("client.latency_samples", float64(len(out.lat)))
		for _, e := range endToEnd {
			if m, ok := client[e.Name]; ok && !e.everywhere {
				layers.set("client."+e.Name, m.Value)
			}
		}
		res.PerLayer = layers
		if o.traceDir != "" {
			if err := rec.write(filepath.Join(o.traceDir, w.name+".trace.json")); err != nil {
				return res, fmt.Errorf("%s: write trace: %w", w.name, err)
			}
		}
	}

	res.Correct = len(res.Failures) == 0 && res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// union returns the sorted names present in either map.
func union(a, b Metrics) []string {
	both := a.clone()
	for k, v := range b {
		both[k] = v
	}
	return both.names()
}

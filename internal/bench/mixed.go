package bench

import (
	"fmt"
	"time"

	"repro/internal/apps/clients"
	"repro/internal/apps/mongoose"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// cpuHog spawns one non-replicated spinner per core on the kernel.
func cpuHog(k *kernel.Kernel) {
	for i := 0; i < k.Cores(); i++ {
		k.Spawn("hog", func(t *kernel.Task) {
			for {
				t.Compute(time.Hour)
			}
		})
	}
}

// mixed reproduces §4.3: a replicated Mongoose (5 concurrent requests)
// sharing the 32-core primary with a non-replicated CPU-intensive
// application that would occupy all cores by itself, against Ubuntu
// running the same mix. FT-Linux runs a 32-core primary partition next to
// a single-core secondary partition.
func mixed(seed int64, quick bool) (Report, error) {
	window := window(quick, 5*time.Second, 8*time.Second)
	const concurrency = 5
	report := Report{Exp: "mixed", Seed: seed, Params: []Label{label("window", window)}}
	mcfg := mongoose.DefaultConfig()
	add := func(system string, ab *clients.ABStats) {
		report.Points = append(report.Points, Point{
			Labels: []Label{label("system", system)},
			Values: []Named{val("req_s", ab.Throughput(measured(window)), "req/s"), val("latency_ns", ab.MeanLatency(), "ns")},
		})
	}

	base, err := baselineMongoose(seed, mcfg, concurrency, window, func(b *core.Baseline) { cpuHog(b.Kernel) })
	if err != nil {
		return report, err
	}
	add("ubuntu", base)

	var served mongoose.Stats
	sys, client, err := ftMongoose(seed, mcfg, &served,
		func(c *core.Config) { c.Placement, c.SecondaryCores = [][]int{{0, 1, 2, 3}, {4}}, 1 })
	if err != nil {
		return report, err
	}
	defer sys.Sim.Shutdown()
	// The CPU hog runs OUTSIDE the FT-Namespace on the primary only.
	cpuHog(sys.Primary.Kernel)
	ft := startAB(client, mcfg, concurrency, window)
	if err := sys.Sim.RunUntil(sim.Time(window + time.Second)); err != nil {
		return report, err
	}
	add("ft-linux", ft)

	if base.Throughput(measured(window)) == 0 || base.MeanLatency() == 0 {
		return report, fmt.Errorf("bench: mixed: the baseline served no request")
	}
	report.Ratios = []Named{
		val("pct_of_ubuntu", 100*ft.Throughput(measured(window))/base.Throughput(measured(window)), "%"),
		val("latency_overhead_pct", 100*(float64(ft.MeanLatency())/float64(base.MeanLatency())-1), "%"),
	}
	return report, nil
}

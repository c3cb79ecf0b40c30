package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcprep"
)

// mode selects which system a workload is built on.
type mode int

const (
	modeBaseline   mode = iota // core.NewBaseline: one unreplicated kernel
	modeReplicated             // core.New
	modeTraced                 // core.New with core.WithTrace
)

// buildCfg is everything a workload's inputs derive from.
type buildCfg struct {
	seed  int64
	scale float64 // share of the workload's nominal virtual window
	mode  mode
	rec   *recorder // client spans; nil outside the traced run
}

// scaled shortens a nominal virtual duration to this run's scale.
func (c buildCfg) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.scale)
}

// server is the system under test behind one interface, so a workload
// builds its baseline and its replicated deployment with the same code.
type server struct {
	sim  *sim.Simulation
	sys  *core.System // nil on the baseline
	base *core.Baseline
}

// boot starts the baseline or a replicated deployment from the same
// options; the baseline takes the fields it understands (seed, TCP and
// kernel parameters) and ignores the replication ones.
func boot(c buildCfg, opts ...core.Option) (*server, error) {
	opts = append(opts, core.WithSeed(c.seed))
	if c.mode == modeBaseline {
		cfg := core.DefaultConfig(c.seed)
		for _, o := range opts {
			o(&cfg)
		}
		b, err := core.NewBaseline(cfg)
		if err != nil {
			return nil, err
		}
		return &server{sim: b.Sim, base: b}, nil
	}
	if c.mode == modeTraced {
		opts = append(opts, core.WithTrace())
	}
	sys, err := core.New(opts...)
	if err != nil {
		return nil, err
	}
	return &server{sim: sys.Sim, sys: sys}, nil
}

func (s *server) attach(link simnet.LinkConfig) (*core.Client, error) {
	if s.sys != nil {
		return s.sys.AttachNetwork(link)
	}
	return s.base.AttachNetwork(link)
}

// launch starts main on every replica (or on the baseline kernel). main
// runs once per replica, so anything it counts must be kept per
// namespace: a struct shared through the closure double-counts.
func (s *server) launch(name string, main func(*replication.Thread, *tcprep.Sockets)) {
	if s.sys != nil {
		s.sys.Run(core.App{Name: name, Main: main})
		return
	}
	s.base.LaunchApp(name, nil, main)
}

// recordingNS is the namespace whose server-side completions count: the
// boot-time primary, or the baseline's only namespace.
func (s *server) recordingNS() *replication.Namespace {
	if s.sys != nil {
		return s.sys.Primary.NS
	}
	return s.base.NS
}

// outcome is what a workload's clients and oracle saw in one run.
type outcome struct {
	attempted int
	failed    int
	failures  []string // oracle messages, first few only

	ops       float64       // ops completed over the whole run
	windowOps float64       // ops completed inside the measured window
	window    time.Duration // length of the measured window

	lat, readLat, writeLat []time.Duration // per-op latency inside the window
	clientBytes            int64           // payload bytes the clients sent and received

	e2e   map[string]float64 // workload-specific end-to-end metrics
	layer map[string]float64 // workload-specific per-layer metrics
}

// failf records an oracle failure. Any failure makes the run incorrect;
// only the first few messages are kept.
func (o *outcome) failf(format string, args ...any) {
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) throughput() float64 { return ratio(o.windowOps, o.window.Seconds()) }

// deployment is one booted system with its application launched and its
// clients spawned, ready to be driven.
type deployment struct {
	srv     *server
	link    *simnet.Link // nil for workloads without a network
	horizon sim.Time     // the run never goes past this instant
	done    func() bool  // optional early stop, polled every driveStep
	finish  func() *outcome
	probe   *probe // nil on the baseline
}

// driveStep is how often an early-stop condition is polled. Stepping adds
// no events to the simulation, so it cannot move a virtual result.
const driveStep = 10 * time.Millisecond

// drive runs the simulation to the horizon (or until done) under host
// cost measurement.
func (d *deployment) drive() (hostCost, error) {
	s := d.srv.sim
	return measure(s, func() error {
		for s.Now() < d.horizon && (d.done == nil || !d.done()) {
			next := s.Now().Add(driveStep)
			if next > d.horizon {
				next = d.horizon
			}
			if err := s.RunUntil(next); err != nil {
				return err
			}
		}
		return nil
	})
}

// probe samples replication state the layers only expose as
// instantaneous values: replay lag (recorded sections the slowest backup
// has not replayed) and the recording side's retained log.
type probe struct {
	lag         []int64
	retainedMax int
}

const probeEvery = 10 * time.Millisecond

// install schedules the sampler on the deployment's simulation. Its
// events run in scheduler context and touch no simulated state, so the
// other events keep their relative order.
func (p *probe) install(sys *core.System, horizon sim.Time) {
	var tick func()
	tick = func() {
		act := sys.Active()
		if act != nil && act.Kernel.Alive() {
			if n := act.NS.RetainedTuples(); n > p.retainedMax {
				p.retainedMax = n
			}
			if sys.State() == core.StateReplicated {
				var worst int64
				for _, b := range sys.Backups() {
					if l := int64(act.NS.SeqGlobal()) - int64(b.NS.ReplayHead()); l > worst {
						worst = l
					}
				}
				p.lag = append(p.lag, worst)
			}
		}
		if sys.Sim.Now().Add(probeEvery) <= horizon {
			sys.Sim.Schedule(probeEvery, tick)
		}
	}
	sys.Sim.Schedule(probeEvery, tick)
}

// workload is one benchmark scenario.
type workload struct {
	name  string
	why   string
	build func(buildCfg) (*deployment, error)
}

var workloads = []workload{webShort, compress, kvMixedN3, streamFailover}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newDeployment finishes what every build shares: the replication probe
// on replicated systems.
func newDeployment(srv *server, horizon sim.Time) *deployment {
	d := &deployment{srv: srv, horizon: horizon}
	if srv.sys != nil {
		d.probe = &probe{}
		d.probe.install(srv.sys, horizon)
	}
	return d
}

package core

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/tcpstack"
)

// Option configures a System built with New.
type Option func(*Config)

// WithSeed sets the simulation's deterministic random seed.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithReplicaSet sets the replica-set size: one recording primary plus
// n-1 replaying backups, each on its own NUMA fault domain. n must be at
// least 2; the output-commit quorum defaults to a majority of the set
// (Config.Quorum overrides it) and the node placement to balanced fault
// domains carved from the machine profile (Config.Placement overrides it).
// WithReplicaSet(2) is exactly the paper's primary/secondary deployment.
func WithReplicaSet(n int) Option {
	return func(c *Config) { c.Replicas = n }
}

// WithDetShards shards the namespace-wide deterministic-section mutex
// across n per-object sequencer locks on both replicas: sections on
// different sequencing objects (mutexes, condvars, replicated syscall
// classes) record and replay concurrently. n <= 1 selects the paper's
// single global mutex and reproduces the unsharded engine byte for byte.
func WithDetShards(n int) Option {
	return func(c *Config) { c.Replication.DetShards = n }
}

// WithRejoinDelay sets how long after a failure the freed partition is
// held down before a fresh backup kernel boots (models repair/reboot
// time).
func WithRejoinDelay(d time.Duration) Option {
	return func(c *Config) { c.RejoinDelay = d }
}

// WithEpochCheckpoints enables epoch checkpointing: the recording side
// cuts an incremental checkpoint every interval (and additionally every
// everyTuples recorded tuples when > 0), each backup verifies the epoch
// boundary digest at its replay frontier and truncates its retained
// tuple log there, and a later rejoin seeds the fresh backup from the
// latest verified checkpoint plus a short delta replay — making both log
// retention and rejoin time flat in uptime instead of linear. The cut
// itself uses iterative pre-copy, so its stop-the-world pause is bounded
// by the workload's dirty rate, not by state size.
//
// Requires restorable apps: every Run app must set App.State. Pass
// interval 0 with everyTuples 0 for the 30s default.
func WithEpochCheckpoints(interval time.Duration, everyTuples int) Option {
	return func(c *Config) {
		c.Epochs.Enabled = true
		c.Epochs.Interval = interval
		c.Epochs.EveryTuples = everyTuples
	}
}

// WithTrace retains the full observability event stream for export.
func WithTrace() Option {
	return func(c *Config) { c.Obs.Trace = true }
}

// WithKernelParams overrides the kernel timing model.
func WithKernelParams(p kernel.Params) Option {
	return func(c *Config) { c.Kernel = p }
}

// WithTCP overrides both replicas' TCP stack parameters.
func WithTCP(p tcpstack.Params) Option {
	return func(c *Config) { c.TCP = p }
}

// New boots a replicated deployment from functional options; a Config
// field without a constructor is set with an Option literal:
//
//	sys, err := core.New(core.WithSeed(1), func(c *core.Config) {
//		c.Chaos = chaos.MustParse("kill primary @2s")
//	})
//	sys.Run(core.App{Name: "srv", Main: func(th, socks) { ... }})
//	sys.Sim.Run()
func New(opts ...Option) (*System, error) {
	cfg := DefaultConfig(1)
	for _, o := range opts {
		o(&cfg)
	}
	return build(cfg)
}

// validate derives what depends on more than one knob and cross-checks
// the rest. It defaults no model constant: New and NewBaseline start from
// DefaultConfig, so every default is written once.
//
// ftvet:knobs — the det-log batching and sharding knobs are resolved by
// replication.Config.WithBatchDefaults, which validate calls and every
// namespace calls again (idempotent), so a replication.NewPrimary built
// directly in a unit test gets exactly what a deployment gets.
func (cfg Config) validate() (Config, error) {
	// Replica-set topology: size, quorum, placement.
	n := cmp.Or(cfg.Replicas, len(cfg.Placement), 2)
	if n < 2 {
		return cfg, fmt.Errorf("core: replica set needs at least 2 replicas, got %d", n)
	}
	if len(cfg.Placement) == 0 {
		doms, err := cfg.Profile.FaultDomains(n)
		if err != nil {
			return cfg, fmt.Errorf("core: %w", err)
		}
		cfg.Placement = doms
	}
	if len(cfg.Placement) != n {
		return cfg, fmt.Errorf("core: placement has %d domains for %d replicas",
			len(cfg.Placement), n)
	}
	cfg.Replicas = n
	cfg.Quorum = cmp.Or(cfg.Quorum, (n+2)/2) // majority of the set, primary included
	if cfg.Quorum < 2 || cfg.Quorum > n {
		return cfg, fmt.Errorf("core: quorum %d out of range [2,%d]", cfg.Quorum, n)
	}
	// One coalescing policy for both streams, normalized once: a batch is
	// at least one, and a partial batch gets a flush bound so it can never
	// sit forever. tcprep.NewPrimary reads it from its namespace.
	cfg.Replication = cfg.Replication.WithBatchDefaults()
	if cfg.Failure.Timeout <= cfg.Failure.Interval {
		return cfg, fmt.Errorf("core: heartbeat timeout %v must exceed interval %v",
			cfg.Failure.Timeout, cfg.Failure.Interval)
	}
	if cfg.Epochs.Enabled && cfg.Epochs.Interval <= 0 && cfg.Epochs.EveryTuples <= 0 {
		cfg.Epochs.Interval = 30 * time.Second
	}
	// The recorder counts backup receipts, so its quorum excludes the
	// primary's own copy.
	cfg.Replication.CommitQuorum = cfg.Quorum - 1
	return cfg, nil
}

// kernelFor is the kernel a replica slot boots, at boot and at every
// rejoin, untuned (chaos.Schedule.Boot tunes it): the primary keeps its own
// core knob, every backup shares the secondary one.
func (cfg Config) kernelFor(name string, slot int) kernel.Config {
	kc := kernel.Config{Name: name, Params: cfg.Kernel, Cores: cfg.SecondaryCores}
	if slot == 0 {
		kc.Cores = cfg.PrimaryCores
	}
	return kc
}

package core

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/failure"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/tcprep"
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
// (WithQuorum overrides it) and the node placement to balanced fault
// domains carved from the machine profile (WithPlacement overrides it).
// WithReplicaSet(2) is exactly the paper's primary/secondary deployment.
func WithReplicaSet(n int) Option {
	return func(c *Config) { c.Replicas = n }
}

// WithQuorum sets the output-commit quorum q, counted over the whole
// replica set including the primary: network output is released once q
// replicas hold the log describing it (the primary plus q-1 backup
// receipts). q must satisfy 2 <= q <= Replicas; q == Replicas reproduces
// the paper's wait-for-every-backup rule, smaller q trades commit-wait
// latency against how many simultaneous failures output stability
// survives.
func WithQuorum(q int) Option {
	return func(c *Config) { c.Quorum = q }
}

// WithPlacement pins each replica slot to an explicit NUMA node set, one
// entry per replica with slot 0 the primary. It implies the replica-set
// size when WithReplicaSet is not given; when both are given the lengths
// must agree.
func WithPlacement(domains [][]int) Option {
	return func(c *Config) { c.Placement = domains }
}

// WithCores restricts each side's usable cores (0 = all in the partition);
// every backup slot shares the secondary restriction.
func WithCores(primary, secondary int) Option {
	return func(c *Config) { c.PrimaryCores, c.SecondaryCores = primary, secondary }
}

// WithAdaptiveBatching lets the recorder's batch controller move: instead
// of staying pinned at the configured BatchTuples, the effective det-log
// batch starts there, grows while output commits find their watermark
// already acknowledged, and halves the moment a commit stalls or the
// unacked-log lag climbs. max is the controller's ceiling (0 selects the
// engine default, max(4*BatchTuples, 32)). The output-commit force-flush
// invariant is untouched.
func WithAdaptiveBatching(max int) Option {
	return func(c *Config) {
		if max < 1 {
			max = -1 // replication.Config.MaxBatchTuples: the default ceiling
		}
		c.Replication.MaxBatchTuples = max
	}
}

// WithDetShards shards the namespace-wide deterministic-section mutex
// across n per-object sequencer locks on both replicas: sections on
// different sequencing objects (mutexes, condvars, replicated syscall
// classes) record and replay concurrently. n <= 1 selects the paper's
// single global mutex and reproduces the unsharded engine byte for byte.
func WithDetShards(n int) Option {
	return func(c *Config) { c.Replication.DetShards = n }
}

// WithStrictOutputCommit selects waiting for backup acknowledgements
// before releasing network output (§3.5; false is relaxed mode).
func WithStrictOutputCommit(strict bool) Option {
	return func(c *Config) { c.Replication.StrictOutputCommit = strict }
}

// WithRejoin enables or disables backup re-integration after a failure.
// New enables it by default; disable to reproduce the paper's
// single-failure experiments exactly.
func WithRejoin(enabled bool) Option {
	return func(c *Config) { c.Rejoin = enabled }
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
// Requires rejoin (on by default under New) and restorable apps: every
// Run app must set App.State. Pass interval 0 with everyTuples 0 for the
// 30s default.
func WithEpochCheckpoints(interval time.Duration, everyTuples int) Option {
	return func(c *Config) {
		c.Epochs.Enabled = true
		c.Epochs.Interval = interval
		c.Epochs.EveryTuples = everyTuples
	}
}

// WithEpochTuning overrides the epoch cutter's pre-copy model: the
// per-byte copy cost, the pass bound, and the convergence target that
// pins the final pause (zero keeps each default).
func WithEpochTuning(perByte time.Duration, maxPasses, targetDirty int) Option {
	return func(c *Config) {
		c.Epochs.PerByteCopyCost = perByte
		c.Epochs.MaxPasses = maxPasses
		c.Epochs.TargetDirtyBytes = targetDirty
	}
}

// WithChaos installs a fault-injection schedule, replayed with its own
// RNG stream seeded by seed.
func WithChaos(sched chaos.Schedule, seed int64) Option {
	return func(c *Config) { c.Chaos, c.ChaosSeed = sched, seed }
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

// WithNICDriverLoadTime sets the Ethernet driver (re)load time that
// dominates failover (§4.4).
func WithNICDriverLoadTime(d time.Duration) Option {
	return func(c *Config) { c.NICDriverLoadTime = d }
}

// New boots a replicated deployment from functional options, with backup
// rejoin enabled by default:
//
//	sys, err := core.New(core.WithSeed(1),
//		core.WithChaos(chaos.MustParse("kill primary @2s"), 7))
//	sys.Run(core.App{Name: "srv", Main: func(th, socks) { ... }})
//	sys.Sim.Run()
func New(opts ...Option) (*System, error) {
	cfg := DefaultConfig(1)
	cfg.Rejoin = true
	for _, o := range opts {
		o(&cfg)
	}
	return build(cfg)
}

// validate is the single normalization and cross-check point for every
// deployment knob.
//
// ftvet:knobs — canonical defaulting site. The det-log batching and
// sharding knobs are resolved by replication.Config.WithBatchDefaults,
// which validate calls and the engine's constructors call again
// (idempotent), so a replication.NewPrimary built directly in a unit test
// gets exactly what a deployment gets.
func (cfg Config) validate() (Config, error) {
	if cfg.Profile.Sockets == 0 {
		cfg.Profile = hw.Opteron6376x4()
	}
	// Replica-set topology: size, quorum, placement.
	n := cfg.Replicas
	if n == 0 && len(cfg.Placement) > 0 {
		n = len(cfg.Placement)
	}
	if n == 0 {
		n = 2
	}
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
	if cfg.Quorum == 0 {
		cfg.Quorum = (n + 2) / 2 // majority of the set, primary included
	}
	if cfg.Quorum < 2 || cfg.Quorum > n {
		return cfg, fmt.Errorf("core: quorum %d out of range [2,%d]", cfg.Quorum, n)
	}
	if cfg.Kernel == (kernel.Params{}) {
		cfg.Kernel = kernel.DefaultParams()
	}
	if cfg.Replication.LogRingBytes == 0 {
		shards := cfg.Replication.DetShards
		cfg.Replication = replication.DefaultConfig()
		cfg.Replication.DetShards = shards
	}
	// One coalescing policy per stream, normalized once: a batch is at
	// least one, and a partial batch gets a flush bound so it can never
	// sit forever.
	cfg.Replication = cfg.Replication.WithBatchDefaults()
	if cfg.TCPSync == (tcprep.SyncConfig{}) {
		cfg.TCPSync = tcprep.DefaultSyncConfig()
	}
	if cfg.TCPSync.BatchUpdates < 1 {
		cfg.TCPSync.BatchUpdates = 1
	}
	if cfg.TCPSync.FlushInterval <= 0 {
		cfg.TCPSync.FlushInterval = tcprep.DefaultSyncConfig().FlushInterval
	}
	if cfg.TCP.MSS == 0 {
		cfg.TCP = tcpstack.DefaultParams()
	}
	if cfg.Failure.Interval <= 0 {
		cfg.Failure = failure.DefaultConfig()
	}
	if cfg.Failure.Timeout <= 0 {
		cfg.Failure.Timeout = 5 * cfg.Failure.Interval
	}
	if cfg.Failure.Timeout <= cfg.Failure.Interval {
		return cfg, fmt.Errorf("core: heartbeat timeout %v must exceed interval %v",
			cfg.Failure.Timeout, cfg.Failure.Interval)
	}
	if cfg.NICDriverLoadTime == 0 {
		cfg.NICDriverLoadTime = 5 * time.Second
	}
	if cfg.RejoinDelay <= 0 {
		cfg.RejoinDelay = 10 * time.Second
	}
	// Epoch checkpointing rides on the rejoin machinery: it truncates the
	// retained history the rejoinable recorder keeps, so it cannot exist
	// without it. Defaults are normalized here like every other knob.
	if cfg.Epochs.Enabled {
		if !cfg.Rejoin {
			return cfg, fmt.Errorf("core: epoch checkpoints require rejoin")
		}
		if cfg.Epochs.Interval <= 0 && cfg.Epochs.EveryTuples <= 0 {
			cfg.Epochs.Interval = 30 * time.Second
		}
		if cfg.Epochs.PerByteCopyCost <= 0 {
			cfg.Epochs.PerByteCopyCost = time.Nanosecond
		}
		if cfg.Epochs.MaxPasses <= 0 {
			cfg.Epochs.MaxPasses = 4
		}
		if cfg.Epochs.TargetDirtyBytes <= 0 {
			cfg.Epochs.TargetDirtyBytes = 4 << 10
		}
	}
	// Rejoin needs the full log history retained from the first section:
	// the flag is derived here, never set directly on the engine config.
	cfg.Replication.Rejoinable = cfg.Rejoin
	// The recorder counts backup receipts, so its quorum excludes the
	// primary's own copy. Derived after the Replication defaulting above —
	// the zero-value reset would wipe it.
	cfg.Replication.CommitQuorum = cfg.Quorum - 1
	return cfg, nil
}

// coresFor returns a replica slot's core restriction: the primary keeps
// its own knob, every backup shares the secondary one.
func (cfg Config) coresFor(slot int) int {
	if slot == 0 {
		return cfg.PrimaryCores
	}
	return cfg.SecondaryCores
}

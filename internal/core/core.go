// Package core assembles the full FT-Linux system of the paper: a
// commodity NUMA machine partitioned into a replica set — two partitions in
// the paper, N with WithReplicaSet — one kernel booted per partition, the
// shared-memory messaging fabric between them, an FT-Namespace replicating
// applications from the primary to every backup (record/replay of
// deterministic sections), TCP-stack replication with output commit,
// heart-beat failure detection with IPI halt, and failover that re-loads
// device drivers and promotes the most caught-up backup to live execution.
//
// It is the public entry point used by every example, command, and
// benchmark in this repository:
//
//	sys, _ := core.New(core.WithSeed(1))
//	sys.Run(core.App{Name: "app", Main: func(th *replication.Thread, _ *tcprep.Sockets) { ... }})
//	sys.Sim.Run() // returns once the work is done; heart-beats are background
//
// New and Run are the one way in; an Option is a func(*Config), so a caller
// that needs a field no With* helper exposes passes a func literal.
//
// With rejoin enabled (the New default), a failover is not the end of the
// story: the survivor keeps recording into a retained history, a fresh
// backup kernel boots on the freed partition, is seeded over a bulk ring
// from the survivor's latest checkpoint — the genesis checkpoint every
// replica boots with, or the last verified epoch cut under
// WithEpochCheckpoints — replays the log retained after it, and the pair
// flips back to replicated mode — repeatedly, across injected crash cycles
// (internal/chaos). WithRejoin(false) is the paper's single-failure
// deployment: no retention, no re-integration.
//
// NewBaseline builds the unreplicated "stock Ubuntu" configuration used as
// the comparison baseline in every experiment.
package core

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/failure"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/obs/causal"
	"repro/internal/rejoin"
	"repro/internal/replication"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcprep"
	"repro/internal/tcpstack"
)

// Config describes a deployment.
type Config struct {
	// Seed drives the simulation's deterministic randomness.
	Seed int64
	// Profile is the machine model (default: the paper's 4x Opteron 6376).
	Profile hw.Profile
	// Replicas is the replica-set size: one recording primary plus
	// Replicas-1 replaying backups, each on its own NUMA fault domain
	// (0 selects the paper's two-replica deployment).
	Replicas int
	// Quorum is the output-commit quorum, counted over the whole replica
	// set including the primary: output is released once Quorum replicas
	// hold the log describing it, so Quorum-1 backup receipt watermarks
	// gate release (0 selects the majority default ceil((Replicas+1)/2);
	// Quorum == Replicas reproduces the paper's all-replicas rule).
	Quorum int
	// Placement pins each replica slot to a NUMA node set, one entry per
	// replica with slot 0 the primary (empty derives balanced fault
	// domains from the profile, hw.Profile.FaultDomains).
	Placement [][]int
	// PrimaryCores/SecondaryCores restrict usable cores (0 = all in the
	// partition); §4.3 uses a single-core secondary.
	PrimaryCores, SecondaryCores int
	// Kernel is the kernel timing model.
	Kernel kernel.Params
	// Replication tunes the record/replay engine.
	Replication replication.Config
	// TCPSync tunes logical-state delta batching on the tcprep.sync ring
	// (zero value selects tcprep.DefaultSyncConfig; set BatchUpdates to 1
	// to stream every update individually).
	TCPSync tcprep.SyncConfig
	// TCP tunes both replicas' TCP stacks.
	TCP tcpstack.Params
	// Failure tunes heart-beat detection.
	Failure failure.Config
	// NICDriverLoadTime is the Ethernet driver (re)load time that dominates
	// failover (§4.4).
	NICDriverLoadTime time.Duration
	// Obs tunes the observability layer. The flight recorder and metrics
	// are always wired; set Obs.Trace to retain the full event stream for
	// export (ftsim -trace).
	Obs obs.Config
	// Rejoin enables backup re-integration: the recording side retains
	// its full history so that, after a failure, a fresh backup kernel on
	// the freed partition can be checkpointed, caught up, and returned to
	// replicated mode. New enables it by default.
	Rejoin bool
	// RejoinDelay is how long a freed partition stays down after a
	// failure before the replacement backup boots (repair/reboot time;
	// 0 selects 10s).
	RejoinDelay time.Duration
	// Chaos is the fault-injection schedule driven against this
	// deployment (empty = none); ChaosSeed seeds the injector's dedicated
	// RNG stream so probability draws never perturb workload randomness.
	Chaos     chaos.Schedule
	ChaosSeed int64
	// Epochs enables and tunes epoch checkpointing (requires Rejoin and
	// restorable apps; see WithEpochCheckpoints).
	Epochs EpochConfig
}

// EpochConfig tunes epoch checkpointing: the recording side cuts an
// incremental checkpoint every epoch, backups verify the boundary digest
// at their replay frontier and truncate their retained log there, and a
// rejoin's seed advances from genesis to the latest verified cut — its
// delta replay one epoch long, flat in uptime, instead of the whole
// history.
type EpochConfig struct {
	// Enabled turns the cutter on (WithEpochCheckpoints sets it).
	Enabled bool
	// Interval cuts an epoch every so much virtual time (0 with
	// EveryTuples 0 defaults to 30s).
	Interval time.Duration
	// EveryTuples additionally cuts once this many tuples have been
	// recorded since the last cut (0 = interval only).
	EveryTuples int
	// PerByteCopyCost models checkpoint copy bandwidth for the pre-copy
	// passes and the final stop-the-world delta (0 = 1ns/byte, ~1GB/s).
	PerByteCopyCost time.Duration
	// MaxPasses bounds the pre-copy iteration (0 = 4).
	MaxPasses int
	// TargetDirtyBytes stops pre-copy once the residual dirty estimate
	// converges to at most this many bytes (0 = 4KiB) — the pinned
	// constant that bounds the final pause independent of state size.
	TargetDirtyBytes int
}

// DefaultConfig returns the paper's standard deployment: two symmetric
// partitions of 32 cores / 64 GB each.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:              seed,
		Profile:           hw.Opteron6376x4(),
		Kernel:            kernel.DefaultParams(),
		Replication:       replication.DefaultConfig(),
		TCPSync:           tcprep.DefaultSyncConfig(),
		TCP:               tcpstack.DefaultParams(),
		Failure:           failure.DefaultConfig(),
		NICDriverLoadTime: 5 * time.Second,
	}
}

// Replica is one side of the replicated system.
type Replica struct {
	Kernel  *kernel.Kernel
	NS      *replication.Namespace
	Sockets *tcprep.Sockets
	// Stack is the replica's live TCP stack: always set on the primary,
	// set on the secondary only after failover promotion.
	Stack    *tcpstack.Stack
	Detector *failure.Detector
	TCPSync  *tcprep.Secondary // backup role (also retained after promotion)
	TCPPrim  *tcprep.Primary   // recording role: sync batching/flush counters

	// partIdx is the replica-set slot (0 = the boot-time primary
	// partition, 1..n-1 the backups); it keys fabric source indices and
	// the per-slot core restriction across rejoin generations.
	partIdx int
	// linkIdx is this backup's link index in the active recorder and TCP
	// primary (recorder construction/AddReplica order, which tcprep
	// mirrors); -1 on the recording side.
	linkIdx int
	// scope is the replica's ftns trace scope, used to restrict the
	// failover replay-frontier diagnosis to the elected backup.
	scope string
	// retired marks a backup removed from the set (election loser or
	// rolling replacement); its detector notifications are stale.
	retired bool
	// apps holds this replica's restorable app instances in launch
	// order (epoch checkpoints only).
	apps []appInst
	// lastCP is the latest checkpoint this replica holds, never nil: the
	// genesis checkpoint from boot, then on a backup the last
	// digest-verified marker payload (or the checkpoint a rejoin seeded it
	// from), on the recording side the last quorum-acknowledged cut. The
	// replica's retained history begins at lastCP.Sent, so a rejoin seeds a
	// fresh backup from lastCP and replays that history as the delta — the
	// whole history while lastCP is still genesis.
	lastCP *rejoin.Checkpoint
}

// Slot returns the replica's partition slot in the replica set (0 is the
// boot-time primary's partition).
func (r *Replica) Slot() int { return r.partIdx }

// System is a running FT-Linux deployment.
type System struct {
	Cfg     Config
	Sim     *sim.Simulation
	Machine *hw.Machine
	Fabric  *shm.Fabric
	// Primary/Secondary name the boot-time replicas on slots 0 and 1;
	// ReplicaSet holds every boot-time replica in slot order.
	Primary    *Replica
	Secondary  *Replica
	ReplicaSet []*Replica

	nic       *kernel.Device
	serverNIC *simnet.NIC

	// Obs is the deployment's tracer/metrics registry; Flight is the
	// flight-recorder dump captured automatically when failover begins
	// (nil until then).
	Obs    *obs.Tracer
	Flight *obs.FlightDump

	// FailedAt records when the recording side was (last) declared
	// failed; LiveAt when the matching failover promotion completed
	// (zero = never).
	FailedAt sim.Time
	LiveAt   sim.Time

	// Lifecycle tracking (see lifecycle.go). active is the replica
	// currently recording or serving live; passives the current backups
	// in join order (empty while degraded). Across rejoin generations
	// these walk away from the boot-time replica set.
	active   *Replica
	passives []*Replica
	state    LifecycleState
	scLife   *obs.Scope

	// Rejoin machinery: recorded app launches are replayed onto each
	// rejoined backup kernel; generation counts re-integration cycles.
	// resync is the backup currently being re-integrated (nil when none);
	// rejoinQ holds repaired dead replicas whose freed partitions await a
	// serialized re-integration slot.
	launches      []appLaunch
	generation    int
	resync        *Replica
	rejoinQ       []*Replica
	resyncStartAt sim.Time
	rejoinErr     error
	lastDead      *Replica

	// Epoch checkpointing (see epoch.go): the monotone epoch counter,
	// cuts awaiting their ack quorum, and the cutter's instrumentation.
	epoch       uint64
	pendingCuts map[uint64]*rejoin.Checkpoint
	scEpoch     *obs.Scope
	hPause      *obs.Histogram

	injector *chaos.Injector
	parts    []*hw.Partition
}

// slotName returns a replica slot's role name: the boot-time pair keeps
// the paper's primary/secondary naming, further backups are backup<slot>.
func slotName(i int) string {
	switch i {
	case 0:
		return "primary"
	case 1:
		return "secondary"
	}
	return fmt.Sprintf("backup%d", i)
}

// ringSuffix returns the per-backup ring/gauge name suffix: slot 1 keeps
// the unsuffixed legacy names, higher slots get ".r<slot>". The chaos
// channel classes match by prefix, so suffixed rings inherit their
// class's fault rules.
func ringSuffix(i int) string {
	if i == 1 {
		return ""
	}
	return fmt.Sprintf(".r%d", i)
}

// build is the one construction path behind New.
func build(cfg Config) (*System, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}

	n := cfg.Replicas
	s := sim.New(cfg.Seed)
	tr := obs.New(s, cfg.Obs)
	m := hw.New(s, cfg.Profile)
	parts := make([]*hw.Partition, n)
	for i := 0; i < n; i++ {
		parts[i], err = m.NewPartition(slotName(i), cfg.Placement[i]...)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	kerns := make([]*kernel.Kernel, n)
	for i := 0; i < n; i++ {
		kerns[i], err = kernel.Boot(parts[i], kernel.Config{
			Name: slotName(i), Params: cfg.Kernel, Cores: cfg.coresFor(i),
		})
		if err != nil {
			return nil, fmt.Errorf("core: boot %s: %w", slotName(i), err)
		}
	}

	// One fabric for the whole set, clocked at the worst cross-partition
	// latency of any replica pair.
	lat := parts[0].CrossLatency(parts[1])
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if l := parts[i].CrossLatency(parts[j]); l > lat {
				lat = l
			}
		}
	}
	fabric := shm.NewFabric(s, lat)
	// Coherency-disrupting faults lose the failing partition's in-flight
	// messages (§3.5). Registered before the kernels' handlers so the drop
	// happens even as the kernel dies.
	m.OnFault(func(f hw.Fault) {
		if f.Kind != hw.CoherencyLoss {
			return
		}
		for i, p := range parts {
			if p.Owns(f.Node) {
				fabric.DropInflight(i)
				return
			}
		}
	})
	for i := range kerns {
		k := kerns[i]
		m.OnFault(func(f hw.Fault) { k.HandleFault(f) })
	}

	// Per-backup ring set in slot order, fabric source = slot. Slot 1
	// keeps the exact legacy ring names so a two-replica deployment is
	// byte-identical to the old engine.
	logs := make([]*shm.Ring, n-1)
	acks := make([]*shm.Ring, n-1)
	syncs := make([]*shm.Ring, n-1)
	hbOut := make([]*shm.Ring, n-1)
	hbIn := make([]*shm.Ring, n-1)
	for i := 1; i < n; i++ {
		sfx := ringSuffix(i)
		logs[i-1] = fabric.NewRing("ftns.log"+sfx, 0, cfg.Replication.LogRingBytes)
		acks[i-1] = fabric.NewRing("ftns.acks"+sfx, i, 256<<10)
		syncs[i-1] = fabric.NewRing("tcprep.sync"+sfx, 0, 8<<20)
		hbOut[i-1] = fabric.NewRing("hb.p2s"+sfx, 0, 16<<10)
		hbIn[i-1] = fabric.NewRing("hb.s2p"+sfx, i, 16<<10)
	}

	pns := replication.NewPrimary("ftns", kerns[0], cfg.Replication, logs, acks)
	snss := make([]*replication.Namespace, n-1)
	for i := 1; i < n; i++ {
		// Slot 1 keeps the bare name (and so the legacy metric prefixes);
		// higher slots suffix it so each backup's replay metrics register
		// under their own names.
		snss[i-1] = replication.NewSecondary("ftns"+ringSuffix(i), kerns[i], cfg.Replication, logs[i-1], acks[i-1])
	}

	// Observability wiring: one scope per component, all timestamps on the
	// virtual clock. The flight rings and metrics are always live; the
	// full stream is retained only under cfg.Obs.Trace.
	for i, k := range kerns {
		k.Instrument(tr.Scope(slotName(i) + "/kernel"))
	}
	for _, r := range fabric.Rings() {
		r.Instrument(tr.Scope("shm/" + r.Name()))
	}
	pns.Instrument(tr.Scope("primary/ftns"), tr.Registry())
	for i := 1; i < n; i++ {
		snss[i-1].Instrument(tr.Scope(slotName(i)+"/ftns"), tr.Registry())
	}
	// Replay lag per backup: sections the primary has recorded but that
	// backup has not yet replayed — the window a failover must redo or
	// drop, and what the election ranks.
	for i := 1; i < n; i++ {
		sns := snss[i-1]
		tr.Registry().Gauge("replay.lag"+ringSuffix(i), func() int64 {
			return int64(pns.SeqGlobal()) - int64(sns.ReplayHead())
		})
	}

	pStack := tcpstack.New(kerns[0], "server", cfg.TCP)
	prim := tcprep.NewPrimary(pns, pStack, tcprep.PrimaryConfig{Syncs: syncs, Sync: cfg.TCPSync})
	prim.Instrument(tr.Scope("primary/tcprep"), tr.Registry())
	secs := make([]*tcprep.Secondary, n-1)
	for i := 1; i < n; i++ {
		secs[i-1] = tcprep.NewSecondary(kerns[i], syncs[i-1], tcprep.SecondaryConfig{})
	}

	genesis := rejoin.Genesis()
	reps := make([]*Replica, n)
	reps[0] = &Replica{
		Kernel:  kerns[0],
		NS:      pns,
		Sockets: tcprep.NewSockets(pns, pStack, prim, nil),
		Stack:   pStack,
		TCPPrim: prim,
		partIdx: 0,
		linkIdx: -1,
		scope:   "primary/ftns",
		lastCP:  genesis,
	}
	for i := 1; i < n; i++ {
		reps[i] = &Replica{
			Kernel:  kerns[i],
			NS:      snss[i-1],
			Sockets: tcprep.NewSockets(snss[i-1], nil, nil, secs[i-1]),
			TCPSync: secs[i-1],
			partIdx: i,
			linkIdx: i - 1,
			scope:   slotName(i) + "/ftns",
			lastCP:  genesis,
		}
	}

	sys := &System{
		Cfg:        cfg,
		Sim:        s,
		Machine:    m,
		Fabric:     fabric,
		Obs:        tr,
		Primary:    reps[0],
		Secondary:  reps[1],
		ReplicaSet: reps,
		nic:        kernel.NewDevice("eth0", cfg.NICDriverLoadTime),
		scLife:     tr.Scope("lifecycle"),
		parts:      parts,
	}
	sys.active = reps[0]
	sys.passives = append(sys.passives, reps[1:]...)
	sys.setState(StateReplicated)

	// Epoch checkpointing (epoch.go): cutter on the recording side,
	// boundary verifier on every backup, quorum tracking for truncation.
	// With epochs off none of this exists and the engine's execution —
	// and its trace — is byte-identical to the previous one.
	if cfg.Epochs.Enabled {
		sys.pendingCuts = make(map[uint64]*rejoin.Checkpoint)
		sys.scEpoch = tr.Scope("epoch")
		sys.hPause = tr.Registry().Histogram("ftns.epoch.pause", "ns")
		sys.wireEpochQuorum(reps[0])
		for _, rep := range reps[1:] {
			rep.NS.OnEpoch(sys.epochVerifier(rep))
		}
		sys.startCutter(reps[0])
	}

	// Failure detection, a detector pair per primary<->backup link (star
	// topology: backups do not watch each other).
	for i := 1; i < n; i++ {
		pd, sd := sys.watch(reps[0], reps[i], hbOut[i-1], hbIn[i-1], "primary/detector"+ringSuffix(i), slotName(i)+"/detector")
		if i == 1 {
			sys.Primary.Detector = pd
		}
		reps[i].Detector = sd
	}

	for _, k := range kerns {
		sys.hookKernel(k)
	}

	// Fault injection: arm every boot-time ring (rejoin-generation rings
	// are armed at creation) and schedule the kills.
	if !cfg.Chaos.Empty() {
		sys.injector = chaos.NewInjector(cfg.Chaos, chaos.Env{
			Sim:     s,
			Machine: m,
			Victim:  sys.victim,
			Scope:   tr.Scope("chaos"),
		}, cfg.ChaosSeed)
		for _, r := range fabric.Rings() {
			sys.injector.ArmRing(r)
		}
		sys.injector.Start()
	}
	return sys, nil
}

// watch starts the failure-detector pair of one link: a watches b over the
// heartbeat ring it sends on, b watches a over the other, a's detector
// built and started first. Both report to peerFailed, which resolves what a
// death means from the current roles: recording side dead = election and
// failover, backup dead = drop its links (and, with rejoin, schedule
// re-integration).
func (sys *System) watch(a, b *Replica, aToB, bToA *shm.Ring, scopeA, scopeB string) (da, db *failure.Detector) {
	da = failure.New(a.Kernel, b.Kernel, aToB, bToA, sys.Cfg.Failure)
	db = failure.New(b.Kernel, a.Kernel, bToA, aToB, sys.Cfg.Failure)
	da.Instrument(sys.Obs.Scope(scopeA))
	db.Instrument(sys.Obs.Scope(scopeB))
	da.OnFail(func() { sys.peerFailed(a, b) })
	db.OnFail(func() { sys.peerFailed(b, a) })
	da.Start()
	db.Start()
	return da, db
}

// hookKernel fails the server NIC the instant a kernel that owns it dies, and
// holds the run open one heart-beat timeout so the monitors see a silent death.
func (sys *System) hookKernel(k *kernel.Kernel) {
	k.OnPanic(func(kernel.PanicReason) {
		if sys.nic.Owner() == k {
			sys.nic.FailDevice()
		}
		sys.Sim.Schedule(sys.Cfg.Failure.Timeout+sys.Cfg.Failure.Interval, func() {})
	})
}

// victim resolves a chaos kill target to a NUMA node by current role: the
// recording side, the first live backup, or the backup holding a specific
// replica-set slot.
func (sys *System) victim(t chaos.Target) (int, bool) {
	var rep *Replica
	if t == chaos.TargetPrimary {
		rep = sys.active
	} else {
		slot, any := t.BackupSlot()
		for _, p := range sys.passives {
			if p.Kernel.Alive() && (any || p.partIdx == slot) {
				rep = p
				break
			}
		}
	}
	if rep == nil || !rep.Kernel.Alive() {
		return 0, false
	}
	return rep.Kernel.Partition().Nodes()[0].ID, true
}

// Injector returns the chaos injector, or nil when no schedule is armed.
func (sys *System) Injector() *chaos.Injector { return sys.injector }

// App is a replicated application: Main runs on every replica inside the
// FT-Namespace with that replica's interposed socket layer (ignore the
// layer for apps that never touch the network). Env is replicated from
// the recording side (§3).
//
// With epoch checkpoints (WithEpochCheckpoints) every app must instead be
// restorable: set State to a factory producing one AppState per replica.
// Epoch rejoin resumes an app from its snapshot plus a short delta
// replay, so a restorable app's observable behaviour — which det sections
// it issues next, in what order — must be a function of its restored
// state alone (mutate replicated state only inside det-section settle
// functions, and re-derive control flow from the state on restore).
type App struct {
	Name string
	Env  map[string]string
	Main func(*replication.Thread, *tcprep.Sockets)
	// State makes the app restorable for epoch checkpoints: a factory
	// called once per replica (boot-time and each rejoin generation).
	State func() AppState
}

// AppState is one replica's instance of a restorable application.
type AppState interface {
	// Main is the app body, exactly like App.Main.
	Main(*replication.Thread, *tcprep.Sockets)
	// Snapshot serializes the app's replicated state. It is called with
	// the namespace quiesced at a section boundary and must not enter a
	// det section or yield.
	Snapshot() []byte
	// Restore rebuilds the state from a Snapshot before Main starts on
	// a checkpoint-seeded backup.
	Restore(data []byte)
	// Dirtied is a monotone cumulative count of state bytes mutated
	// since the instance started; the epoch pre-copy engine differences
	// readings to size its converging passes.
	Dirtied() uint64
}

// appLaunch is a recorded launch, replayed onto each rejoined backup
// kernel so its replica can replay the application from the first tuple
// (or resume it from an epoch snapshot when State is set).
type appLaunch struct {
	name  string
	env   map[string]string
	run   func(*replication.Thread, *tcprep.Sockets)
	state func() AppState
}

// appInst is one replica's live instance of a restorable app, in launch
// order — the order epoch snapshots are cut and restored in.
type appInst struct {
	name  string
	state AppState
}

// startOn starts a recorded launch on a replica. A restorable app gets a
// fresh instance, restored from its snapshot in snaps when there is one;
// no snapshot (and no App.State at all) means start from scratch.
func (sys *System) startOn(rep *Replica, l appLaunch, snaps []rejoin.AppSnap) {
	run := l.run
	if l.state != nil {
		inst := l.state()
		for _, a := range snaps {
			if a.Name == l.name {
				inst.Restore(a.Data)
				break
			}
		}
		rep.apps = append(rep.apps, appInst{name: l.name, state: inst})
		run = inst.Main
	}
	rep.NS.Start(l.name, l.env, func(th *replication.Thread) { run(th, rep.Sockets) })
}

// Run starts an application on every current replica and records the
// launch so rejoined backups can replay it from the beginning. It is the
// single launch entry point of the lifecycle API.
func (sys *System) Run(app App) {
	if app.Main == nil && app.State == nil {
		panic("core: Run: app.Main is nil")
	}
	if sys.Cfg.Epochs.Enabled && app.State == nil {
		// Epoch truncation discards the log prefix a from-the-start
		// replay would need; only snapshot-restorable apps can rejoin.
		panic("core: Run: epoch checkpoints require a restorable app (set App.State)")
	}
	l := appLaunch{name: app.Name, env: app.Env, run: app.Main, state: app.State}
	sys.launches = append(sys.launches, l)
	sys.startOn(sys.active, l, nil)
	for _, p := range sys.passives {
		sys.startOn(p, l, nil)
	}
}

// peerFailed is the one detector callback: surv's detector declared peer
// dead (and IPI-halted it). What that means depends on peer's current
// role; a stale notification from a replica that is no longer paired
// (an earlier generation's detector firing late, or a retired backup's)
// is ignored.
func (sys *System) peerFailed(surv, dead *Replica) {
	if !surv.Kernel.Alive() {
		return
	}
	switch {
	case sys.isPassive(dead):
		sys.backupDied(surv, dead)
	case dead == sys.active && sys.isPassive(surv):
		sys.failover(surv, dead)
	}
}

// backupDied handles one backup's death on the recording side: drop it
// from the set and, with rejoin, schedule its partition's re-integration.
func (sys *System) backupDied(surv, dead *Replica) {
	if !sys.removePassive(dead) {
		return
	}
	if sys.resync == dead {
		sys.resync = nil
	}
	sys.lastDead = dead
	sys.dropBackup(surv, dead)
	sys.scheduleRejoin(surv, dead)
}

// dropBackup detaches a backup that just left the passive list — dead or
// retired — from the recording side act. Losing the last backup degrades
// exactly as the two-replica engine did: the namespace goes live (or, with
// rejoin, keeps recording into the retained history with vacuous output
// stability), the TCP sync stream stops, and parked output is released.
// With other backups still live only the departed slot's links are
// dropped; falling below the commit quorum is surfaced (QuorumLost event,
// Healthy returning ErrQuorumLost) while the recorder degrades to its
// all-of-the-living release rule.
func (sys *System) dropBackup(act, gone *Replica) {
	live := sys.livePassives()
	if len(live) == 0 {
		act.NS.GoLive()
		if act.TCPPrim != nil {
			act.TCPPrim.GoLive()
		}
		sys.setState(StateDegraded)
		return
	}
	act.NS.DropReplica(gone.linkIdx)
	if act.TCPPrim != nil {
		act.TCPPrim.DropRing(gone.linkIdx)
	}
	if len(live) < sys.Cfg.Quorum-1 {
		sys.scLife.EmitNote(obs.QuorumLost, 0, int64(len(live)), int64(sys.Cfg.Quorum),
			fmt.Sprintf("%d live backups below commit quorum %d", len(live), sys.Cfg.Quorum))
	}
	if sys.resync == nil {
		sys.setState(StateDegraded)
	}
}

// failover runs the active side's death on the first surviving backup
// detector to notice: elect the most-caught-up live backup, retire the
// losers (their replay cursors belong to the dead primary's log and
// cannot re-attach to the winner's fresh recorder mid-stream), and
// promote the winner. Later notifications from the other backups find
// the active already changed and are ignored by peerFailed.
func (sys *System) failover(first, dead *Replica) {
	winner, losers := sys.elect()
	if winner == nil {
		return
	}
	sys.failoverTo(winner, dead, losers)
}

// failoverTo is the §3.7 sequence, run once the recording side is
// declared failed and the election picked surv: promote the replay engine
// to the stable point, re-load the NIC driver (the dominant cost, §4.4),
// bring up a fresh TCP stack, and promote the logical TCP states into it.
// With rejoin enabled the promoted side then becomes a detached recording
// primary and every freed partition — the dead primary's and each retired
// loser's — is scheduled for re-integration.
func (sys *System) failoverTo(surv, dead *Replica, losers []*Replica) {
	sys.FailedAt = sys.Sim.Now()
	// Snapshot the flight recorder before promotion mutates the replay
	// state: the dump shows the system exactly as the failure found it —
	// last acked tuple, in-flight batches, detector transitions, and the
	// replay.lag gauge at the moment of failure.
	sys.Flight = sys.Obs.FlightDump()
	if sys.Flight != nil {
		// Pre-triage the dump: the first tuple the dead primary recorded
		// that the ELECTED survivor was never granted is the replay
		// frontier — exactly the work promotion is about to discard (a
		// loser's deeper coverage dies with it). Prefer the full trace
		// when one is retained (the flight rings are bounded and may have
		// evicted the tuple's ancestry).
		events := sys.Obs.Events()
		if len(events) == 0 {
			events = sys.Flight.Events
		}
		if d := causal.ReplayDiffScoped(events, surv.scope); d != nil {
			causal.Annotate(d, "failed_at_ns", int64(sys.FailedAt))
			sys.Flight.Diagnosis = d.Report()
		}
		if len(losers) > 0 {
			// A contested election: record who won and what each loser
			// held, so the dump explains any discarded coverage.
			lines := fmt.Sprintf("election: slot %d promoted at receipt watermark %d",
				surv.partIdx, surv.NS.Processed())
			for _, l := range losers {
				lines += fmt.Sprintf("\nelection: slot %d retired at receipt watermark %d",
					l.partIdx, l.NS.Processed())
			}
			if sys.Flight.Diagnosis != "" {
				sys.Flight.Diagnosis += "\n"
			}
			sys.Flight.Diagnosis += lines
		}
	}
	if len(losers) > 0 {
		note := fmt.Sprintf("slot %d wins", surv.partIdx)
		for _, l := range losers {
			note += fmt.Sprintf("; slot %d at %d retired", l.partIdx, l.NS.Processed())
		}
		sys.scLife.EmitNote(obs.Election, 0, int64(surv.partIdx), int64(surv.NS.Processed()), note)
	}
	sys.active = surv
	sys.passives = nil
	sys.resync = nil
	sys.lastDead = dead
	sys.setState(StateDegraded)
	// Retire the election losers off the scheduler path (their detectors
	// may be mid-callback); each freed partition re-integrates from a
	// checkpoint like the dead primary's does.
	for _, l := range losers {
		l.retired = true
		sys.scLife.EmitNote(obs.ReplicaRetire, 0, int64(l.partIdx), int64(l.NS.Processed()),
			"lost failover election")
		lk := l.Kernel
		sys.Sim.Schedule(0, func() { lk.Panic("retired: lost failover election", nil) })
		sys.scheduleRejoin(surv, l)
	}
	surv.NS.Replayer().Promote()
	k := surv.Kernel
	k.Spawn("failover", func(t *kernel.Task) {
		if err := t.LoadDriver(sys.nic); err != nil {
			sys.setState(StateFailed)
			return // the survivor died too; nothing left to fail over to
		}
		stack := tcpstack.New(k, "server", sys.Cfg.TCP)
		if sys.serverNIC != nil {
			stack.Attach(sys.serverNIC)
		}
		if err := surv.Sockets.Promote(t, stack); err != nil {
			panic(fmt.Sprintf("core: failover promotion: %v", err))
		}
		surv.Stack = stack
		if sys.Cfg.Rejoin {
			// Keep recording: wrap the new stack in a detached primary
			// that carries on the promoted backup's connection table, so a
			// rejoining backup can be checkpointed later. Same sim instant
			// as Promote's restore — no segment can slip between them.
			dp := tcprep.NewPrimary(surv.NS, stack, tcprep.PrimaryConfig{
				Sync: sys.Cfg.TCPSync, History: surv.TCPSync.Table()})
			dp.Instrument(sys.Obs.Scope(fmt.Sprintf("gen%d/tcprep", sys.generation+1)), nil)
			surv.TCPPrim = dp
			surv.Sockets.AdoptPrimary(dp)
		}
		if sys.Cfg.Epochs.Enabled {
			// The promoted fork continues the dead primary's epoch
			// sequence; its retained history is already truncated at the
			// survivor's last verified boundary, and surv.lastCP carries
			// that checkpoint forward for the rejoins scheduled below.
			// The old primary's unacknowledged cuts die with it.
			surv.NS.SeedEpochs(sys.epoch)
			sys.pendingCuts = make(map[uint64]*rejoin.Checkpoint)
			sys.wireEpochQuorum(surv)
			sys.startCutter(surv)
		}
		sys.LiveAt = t.Now()
		sys.scheduleRejoin(surv, dead)
	})
}

// InjectPrimaryFailure kills the primary kernel after delay d with the
// given fault kind (a fail-stop by default), driving the full detection
// and failover path.
func (sys *System) InjectPrimaryFailure(d time.Duration, kind hw.FaultKind) {
	if kind == 0 {
		kind = hw.CoreFailStop
	}
	node := sys.Cfg.Placement[0][0]
	sys.Machine.InjectAfter(d, hw.Fault{Kind: kind, Node: node, Core: -1, Addr: -1})
}

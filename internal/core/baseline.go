package core

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcprep"
	"repro/internal/tcpstack"
)

// Baseline is the unmodified-Ubuntu comparison system of every experiment:
// one kernel allocated the same resources as a single FT-Linux partition
// (32 cores, 4 NUMA nodes, 64 GB by default), a live (unreplicated)
// namespace, and a direct TCP stack. Applications run unchanged against
// the same APIs.
type Baseline struct {
	Cfg     Config
	Sim     *sim.Simulation
	Machine *hw.Machine
	Kernel  *kernel.Kernel
	NS      *replication.Namespace
	Sockets *tcprep.Sockets
	Stack   *tcpstack.Stack

	nic       *kernel.Device
	serverNIC *simnet.NIC
}

// NewBaseline boots the unreplicated baseline using the config's primary
// partition shape.
func NewBaseline(cfg Config) (*Baseline, error) {
	if cfg.Profile.Sockets == 0 {
		cfg.Profile = hw.Opteron6376x4()
	}
	nodes := []int{0, 1, 2, 3}
	if len(cfg.Placement) > 0 {
		nodes = cfg.Placement[0]
	}
	if cfg.Kernel == (kernel.Params{}) {
		cfg.Kernel = kernel.DefaultParams()
	}
	if cfg.TCP.MSS == 0 {
		cfg.TCP = tcpstack.DefaultParams()
	}
	s := sim.New(cfg.Seed)
	m := hw.New(s, cfg.Profile)
	part, err := m.NewPartition("ubuntu", nodes...)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	k, err := kernel.Boot(part, kernel.Config{Name: "ubuntu", Params: cfg.Kernel, Cores: cfg.PrimaryCores})
	if err != nil {
		return nil, fmt.Errorf("core: boot baseline: %w", err)
	}
	m.OnFault(func(f hw.Fault) { k.HandleFault(f) })
	ns := replication.NewLive("native", k)
	stack := tcpstack.New(k, "server", cfg.TCP)
	return &Baseline{
		Cfg:     cfg,
		Sim:     s,
		Machine: m,
		Kernel:  k,
		NS:      ns,
		Sockets: tcprep.NewSockets(ns, stack, nil, nil),
		Stack:   stack,
		nic:     kernel.NewDevice("eth0", cfg.NICDriverLoadTime),
	}, nil
}

// LaunchApp starts the application on the baseline kernel with its direct
// socket layer (ignore the layer for apps that never touch the network).
func (b *Baseline) LaunchApp(name string, env map[string]string, app func(*replication.Thread, *tcprep.Sockets)) {
	b.NS.Start(name, env, func(th *replication.Thread) { app(th, b.Sockets) })
}

// AttachNetwork plugs the baseline server into a fresh client machine.
func (b *Baseline) AttachNetwork(link simnet.LinkConfig) (*Client, error) {
	if b.serverNIC != nil {
		return nil, fmt.Errorf("core: network already attached")
	}
	nic, c, err := attachNetwork(b.Sim, b.Cfg, b.nic, b.Kernel, b.Stack, link)
	b.serverNIC = nic
	return c, err
}

// Package hw models the commodity multicore hardware that FT-Linux runs on:
// sockets, NUMA nodes, cores, memory banks, interconnect latencies, hardware
// partitions, and detected hardware faults (machine-check events).
//
// The model follows the paper's evaluation machine — four AMD Opteron 6376
// processors, 64 cores, 128 GB of RAM split in 8 equally-sized NUMA nodes —
// and the paper's fault taxonomy (§2.1): core fail-stop, detected-but-
// uncorrected memory errors, correctable memory errors and cache-coherency
// disruption.
package hw

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Profile describes the static shape and timing of a machine.
type Profile struct {
	Name         string
	Sockets      int
	NodesPerSock int
	CoresPerNode int
	MemPerNode   int64 // bytes
	PageSize     int64 // bytes

	// LocalMemLatency is the latency of a memory access within a NUMA node.
	LocalMemLatency time.Duration
	// HopLatency is the extra latency per NUMA hop for remote accesses and
	// for cache-coherent cross-partition message propagation.
	HopLatency time.Duration
	// CoreToCore is the measured propagation delay of a message between two
	// cores of the machine (0.55 us in Guerraoui et al., cited in §1).
	CoreToCore time.Duration
}

// Opteron6376x4 is the paper's evaluation machine: 4 sockets x 2 NUMA nodes
// x 8 cores, 16 GB per node (64 cores, 128 GB total).
func Opteron6376x4() Profile {
	return Profile{
		Name:            "4x AMD Opteron 6376",
		Sockets:         4,
		NodesPerSock:    2,
		CoresPerNode:    8,
		MemPerNode:      16 << 30,
		PageSize:        4 << 10,
		LocalMemLatency: 80 * time.Nanosecond,
		HopLatency:      60 * time.Nanosecond,
		CoreToCore:      550 * time.Nanosecond,
	}
}

// MemDumpMachine is the 64-core, 96 GB machine used for the Figure 1 memory
// dump experiment (§2.3).
func MemDumpMachine() Profile {
	p := Opteron6376x4()
	p.Name = "64-core 96GB (Fig. 1)"
	p.MemPerNode = 12 << 30
	return p
}

// TotalCores reports the number of cores the profile describes.
func (p Profile) TotalCores() int { return p.Sockets * p.NodesPerSock * p.CoresPerNode }

// TotalNodes reports the number of NUMA nodes the profile describes.
func (p Profile) TotalNodes() int { return p.Sockets * p.NodesPerSock }

// TotalMem reports the total bytes of RAM the profile describes.
func (p Profile) TotalMem() int64 { return int64(p.TotalNodes()) * p.MemPerNode }

// FaultDomains partitions the profile's NUMA nodes into n balanced,
// contiguous fault domains — the default replica placement for an n-way
// replica set (Quest-V-style sandboxing: each replica's full software
// stack is confined to its own nodes, so one domain's failure cannot
// corrupt another's memory). Nodes are assigned in ID order, so sockets
// are split as little as the arithmetic allows; when the node count does
// not divide evenly the first TotalNodes mod n domains get the extra
// node. With n = 2 on the 8-node Opteron profile this yields exactly the
// historical primary/secondary split ({0..3}, {4..7}).
func (p Profile) FaultDomains(n int) ([][]int, error) {
	total := p.TotalNodes()
	if n < 2 {
		return nil, fmt.Errorf("hw: %d fault domains: a replica set needs at least 2", n)
	}
	if n > total {
		return nil, fmt.Errorf("hw: %d fault domains exceed the profile's %d NUMA nodes", n, total)
	}
	domains := make([][]int, n)
	base, extra := total/n, total%n
	id := 0
	for i := range domains {
		size := base
		if i < extra {
			size++
		}
		for j := 0; j < size; j++ {
			domains[i] = append(domains[i], id)
			id++
		}
	}
	return domains, nil
}

// Core is one CPU core.
type Core struct {
	ID   int
	Node *Node
}

// Node is one NUMA node: a set of cores plus a local memory bank.
type Node struct {
	ID     int
	Socket int
	Cores  []*Core
	Mem    int64 // bytes of local RAM
}

// Machine is a simulated multicore machine.
type Machine struct {
	prof  Profile
	sim   *sim.Simulation
	nodes []*Node
	cores []*Core
	parts []*Partition
	subs  []func(Fault)
}

// New builds a machine with the given profile on the given simulation.
func New(s *sim.Simulation, prof Profile) *Machine {
	m := &Machine{prof: prof, sim: s}
	coreID := 0
	for sock := 0; sock < prof.Sockets; sock++ {
		for n := 0; n < prof.NodesPerSock; n++ {
			node := &Node{
				ID:     sock*prof.NodesPerSock + n,
				Socket: sock,
				Mem:    prof.MemPerNode,
			}
			for c := 0; c < prof.CoresPerNode; c++ {
				core := &Core{ID: coreID, Node: node}
				coreID++
				node.Cores = append(node.Cores, core)
				m.cores = append(m.cores, core)
			}
			m.nodes = append(m.nodes, node)
		}
	}
	return m
}

// Sim returns the simulation the machine lives in.
func (m *Machine) Sim() *sim.Simulation { return m.sim }

// Profile returns the machine's static profile.
func (m *Machine) Profile() Profile { return m.prof }

// Nodes returns the machine's NUMA nodes in ID order. The slice is shared;
// callers must not modify it.
func (m *Machine) Nodes() []*Node { return m.nodes }

// Cores returns all cores in ID order. The slice is shared; callers must not
// modify it.
func (m *Machine) Cores() []*Core { return m.cores }

// Hops reports the number of interconnect hops between two NUMA nodes: 0
// within a node, 1 within a socket, 2 across sockets.
func (m *Machine) Hops(a, b int) int {
	switch {
	case a == b:
		return 0
	case m.nodes[a].Socket == m.nodes[b].Socket:
		return 1
	default:
		return 2
	}
}

// MemLatency reports the latency of an access from node from to memory on
// node to.
func (m *Machine) MemLatency(from, to int) time.Duration {
	return m.prof.LocalMemLatency + time.Duration(m.Hops(from, to))*m.prof.HopLatency
}

// Partition is a named, exclusive subset of the machine's NUMA nodes (and
// therefore cores and memory). FT-Linux boots one kernel per partition.
type Partition struct {
	Name  string
	nodes []*Node
	cores []*Core
	mach  *Machine
}

// NewPartition carves a partition out of the given NUMA nodes. It returns an
// error if a node does not exist or is already owned by another partition:
// the paper requires hardware to be strictly divided among replicas.
func (m *Machine) NewPartition(name string, nodeIDs ...int) (*Partition, error) {
	if len(nodeIDs) == 0 {
		return nil, fmt.Errorf("hw: partition %q: no nodes given", name)
	}
	p := &Partition{Name: name, mach: m}
	for _, id := range nodeIDs {
		if id < 0 || id >= len(m.nodes) {
			return nil, fmt.Errorf("hw: partition %q: node %d does not exist", name, id)
		}
		for _, other := range m.parts {
			for _, n := range other.nodes {
				if n.ID == id {
					return nil, fmt.Errorf("hw: partition %q: node %d already owned by partition %q", name, id, other.Name)
				}
			}
		}
		n := m.nodes[id]
		p.nodes = append(p.nodes, n)
		p.cores = append(p.cores, n.Cores...)
	}
	m.parts = append(m.parts, p)
	return p, nil
}

// Machine returns the machine the partition belongs to.
func (p *Partition) Machine() *Machine { return p.mach }

// Nodes returns the partition's NUMA nodes. The slice is shared; callers
// must not modify it.
func (p *Partition) Nodes() []*Node { return p.nodes }

// Cores returns the partition's cores. The slice is shared; callers must not
// modify it.
func (p *Partition) Cores() []*Core { return p.cores }

// Mem reports the partition's total bytes of RAM.
func (p *Partition) Mem() int64 {
	var total int64
	for _, n := range p.nodes {
		total += n.Mem
	}
	return total
}

// Owns reports whether the partition owns the given NUMA node.
func (p *Partition) Owns(nodeID int) bool {
	for _, n := range p.nodes {
		if n.ID == nodeID {
			return true
		}
	}
	return false
}

// CrossLatency reports the propagation delay of a cache-coherent message
// between this partition and another, taking the worst-case hop count
// between their nodes.
func (p *Partition) CrossLatency(q *Partition) time.Duration {
	maxHops := 0
	for _, a := range p.nodes {
		for _, b := range q.nodes {
			if h := p.mach.Hops(a.ID, b.ID); h > maxHops {
				maxHops = h
			}
		}
	}
	return p.mach.prof.CoreToCore + time.Duration(maxHops)*p.mach.prof.HopLatency
}

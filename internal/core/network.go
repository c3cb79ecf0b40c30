package core

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcpstack"
)

// Client is the external client machine of the paper's evaluation setup
// (§4.2, §4.4): its own hardware, kernel, and (unreplicated) TCP stack,
// connected to the replicated server through an Ethernet link.
type Client struct {
	Kernel *kernel.Kernel
	Stack  *tcpstack.Stack
	NIC    *simnet.NIC
	Link   *simnet.Link
}

// ServerAddr returns the replicated service's address on the given port.
func (c *Client) ServerAddr(port int) tcpstack.Addr {
	return tcpstack.Addr{Host: "server", Port: port}
}

// clientProfile is a modest single-socket client machine.
func clientProfile() hw.Profile {
	p := hw.Opteron6376x4()
	p.Name = "client machine"
	p.Sockets = 1
	return p
}

// AttachNetwork plugs the server NIC (owned by the primary kernel, which
// loads its driver at boot) into a fresh client machine over the given
// link. Call once, before Sim.Run.
func (sys *System) AttachNetwork(link simnet.LinkConfig) (*Client, error) {
	if sys.serverNIC != nil {
		return nil, fmt.Errorf("core: network already attached")
	}
	nic, c, err := attachNetwork(sys.Sim, sys.Cfg, sys.nic, sys.Primary.Kernel, sys.Primary.Stack, link)
	sys.serverNIC = nic
	return c, err
}

// attachNetwork boots a client machine and links it to a new server NIC on
// dev, which serves stack on kernel k, and returns that NIC. It is the one
// network set-up of the replicated system and the baseline.
func attachNetwork(s *sim.Simulation, cfg Config, dev *kernel.Device, k *kernel.Kernel, stack *tcpstack.Stack, link simnet.LinkConfig) (*simnet.NIC, *Client, error) {
	cp, err := hw.New(s, clientProfile()).NewPartition("client", 0, 1)
	if err != nil {
		return nil, nil, err
	}
	ck, err := kernel.Boot(cp, kernel.Config{Name: "client", Params: cfg.Kernel})
	if err != nil {
		return nil, nil, err
	}
	serverNIC := simnet.NewNIC("server", dev)
	clientNIC := simnet.NewNIC("client", nil)
	l, err := simnet.Connect(s, clientNIC, serverNIC, link)
	if err != nil {
		return nil, nil, err
	}
	cstack := tcpstack.New(ck, "client", cfg.TCP)
	cstack.Attach(clientNIC)
	stack.Attach(serverNIC)

	// The serving kernel's boot-time driver initialization predates the
	// measurement window; only failover reloads pay the load time (§4.4).
	dev.Preload(k)
	return serverNIC, &Client{Kernel: ck, Stack: cstack, NIC: clientNIC, Link: l}, nil
}

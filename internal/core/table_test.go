package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/simnet"
	"repro/internal/tcprep"
)

// What a model cost can move in a small replicated echo run, in ns: when the
// backup finished replaying it, the backup's CPU time, the client's latency.
const replayEnd, backupCPU, latency = 0, 1, 2

func echoCostRun(t *testing.T, scale func(*core.Config)) (r [3]int64) {
	sys := quietSystem(t, 3, scale)
	defer sys.Sim.Shutdown()
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	var done, n = 0, 4
	sys.Run(core.App{Name: "echo", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		if echoApp(80, n, &done)(th, socks); socks == sys.Secondary.Sockets {
			r[replayEnd] = int64(th.Task().Now())
		}
	}})
	client.Kernel.Spawn("client", func(tk *kernel.Task) {
		for i := 0; i < n; i++ {
			c, err := client.Stack.Connect(tk, client.ServerAddr(80))
			if err == nil {
				sent := tk.Now()
				if _, err = c.Send(tk, make([]byte, 1024)); err == nil {
					_, err = c.Recv(tk, 4096)
				}
				r[latency] += int64(tk.Now().Sub(sent))
				_ = c.Close(tk)
			}
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
		}
	})
	if err := sys.Wait(); err != nil || done != 2*n {
		t.Fatalf("served %d requests on two replicas, want %d (%v)", done, 2*n, err)
	}
	r[backupCPU] = int64(sys.Secondary.Kernel.ComputeTime())
	return r
}

// TestEveryModelCostMovesItsObservable is the cost table's liveness check:
// doubling any time cost core.Config exposes must move the observable it
// prices. A cost nothing reads would read elasticity 0 in a sensitivity sweep.
func TestEveryModelCostMovesItsObservable(t *testing.T) {
	t.Parallel()
	base := echoCostRun(t, func(*core.Config) {})
	for _, c := range []struct {
		field   string
		moves   int
		doubled func(*core.Config)
	}{
		{"Replication.SectionCost", latency, func(c *core.Config) { c.Replication.SectionCost *= 2 }},
		{"Replication.ReplayDispatchCost", replayEnd, func(c *core.Config) { c.Replication.ReplayDispatchCost *= 2 }},
		{"Replication.ReplaySectionCost", replayEnd, func(c *core.Config) { c.Replication.ReplaySectionCost *= 2 }},
		{"TCPRep.PerSegment", latency, func(c *core.Config) { c.TCPRep.PerSegment *= 2 }},
		{"TCPRep.PerByte", latency, func(c *core.Config) { c.TCPRep.PerByte *= 2 }},
		{"TCPRep.SyncUpdate", backupCPU, func(c *core.Config) { c.TCPRep.SyncUpdate *= 2 }},
		{"TCP.SegmentCPU", latency, func(c *core.Config) { c.TCP.SegmentCPU *= 2 }},
		{"Kernel.SyscallCost", latency, func(c *core.Config) { c.Kernel.SyscallCost *= 2 }},
		{"Kernel.ContextSwitch", replayEnd, func(c *core.Config) { c.Kernel.ContextSwitch *= 2 }},
		{"Kernel.WakeBase", replayEnd, func(c *core.Config) { c.Kernel.WakeBase *= 2 }},
	} {
		if got := echoCostRun(t, c.doubled); got[c.moves] == base[c.moves] {
			t.Errorf("%s doubled moved nothing: %v (replay end, backup CPU, latency), base %v", c.field, got, base)
		}
	}
}

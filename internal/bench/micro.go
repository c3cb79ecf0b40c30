package bench

import (
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// LatencyResult is the §1 motivation microbenchmark: the propagation delay
// of a message between replicas inside one machine (shared-memory mailbox)
// versus across a LAN — Guerraoui et al. measured 0.55 us vs 135 us.
type LatencyResult struct {
	IntraMachine time.Duration // mailbox one-way propagation
	InterMachine time.Duration // LAN one-way propagation
	Ratio        float64
}

// IntraVsInterLatency measures one-way message propagation through the
// shared-memory fabric and through a simulated LAN link.
func IntraVsInterLatency(seed int64, rounds int) (LatencyResult, error) {
	var res LatencyResult

	// Intra-machine: mailbox between the two partitions.
	s := sim.New(seed)
	defer s.Shutdown()
	m := hw.New(s, hw.Opteron6376x4())
	p0, err := m.NewPartition("p0", 0, 1, 2, 3)
	if err != nil {
		return res, err
	}
	p1, err := m.NewPartition("p1", 4, 5, 6, 7)
	if err != nil {
		return res, err
	}
	fabric := shm.NewFabric(s, p0.CrossLatency(p1))
	ring := fabric.NewRing("ping", 0, 1<<20)
	var total time.Duration
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ring.Send(p, shm.Message{Kind: 1, Size: 8, W: [7]uint64{uint64(s.Now())}})
			p.Sleep(10 * time.Microsecond)
		}
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			msg := ring.Recv(p)
			total += s.Now().Sub(sim.Time(msg.W[0]))
		}
	})
	if err := s.Run(); err != nil {
		return res, err
	}
	res.IntraMachine = total / time.Duration(rounds)

	// Inter-machine: one-way delay of a small frame over the LAN link.
	s2 := sim.New(seed)
	defer s2.Shutdown()
	a := simnet.NewNIC("a", nil)
	b := simnet.NewNIC("b", nil)
	if _, err := simnet.Connect(s2, a, b, simnet.LAN135us()); err != nil {
		return res, err
	}
	var lanTotal time.Duration
	var sentAt sim.Time
	count := 0
	b.SetRx(func(p simnet.Packet) {
		lanTotal += s2.Now().Sub(sentAt)
		count++
	})
	for i := 0; i < rounds; i++ {
		i := i
		s2.Schedule(time.Duration(i)*time.Millisecond, func() {
			sentAt = s2.Now()
			a.Send(simnet.Packet{Size: 64})
		})
	}
	if err := s2.Run(); err != nil {
		return res, err
	}
	res.InterMachine = lanTotal / time.Duration(count)
	res.Ratio = float64(res.InterMachine) / float64(res.IntraMachine)
	return res, nil
}

// WakeLatencyResult quantifies the wake_up_process cost model behind the
// §4.1 bottleneck: dispatch latency onto busy versus deep-idle cores.
type WakeLatencyResult struct {
	BusyHandoff time.Duration
	// IdleWakeAvg/Max: dispatch onto a briefly idle core (5 ms).
	IdleWakeAvg time.Duration
	IdleWakeMax time.Duration
	// DeepIdleAvg/Max: dispatch onto a long-idle core (400 ms) — the
	// "up to tens of ms" case the paper observed.
	DeepIdleAvg time.Duration
	DeepIdleMax time.Duration
}

// WakeLatency measures the scheduler's dispatch penalty distribution.
func WakeLatency(seed int64, rounds int) (WakeLatencyResult, error) {
	var res WakeLatencyResult
	s := sim.New(seed)
	defer s.Shutdown()
	m := hw.New(s, hw.Opteron6376x4())
	part, err := m.NewPartition("p", 0, 1, 2, 3)
	if err != nil {
		return res, err
	}
	k, err := kernel.Boot(part, kernel.Config{Name: "k", Cores: 1})
	if err != nil {
		return res, err
	}
	measure := func(idle time.Duration, n int) (avg, max time.Duration) {
		var total time.Duration
		k.Spawn("idle-waker", func(t *kernel.Task) {
			for i := 0; i < n; i++ {
				t.Sleep(idle)
				start := t.Now()
				t.Compute(time.Microsecond)
				lat := t.Now().Sub(start) - time.Microsecond
				total += lat
				if lat > max {
					max = lat
				}
			}
		})
		_ = s.Run()
		return total / time.Duration(n), max
	}
	res.IdleWakeAvg, res.IdleWakeMax = measure(5*time.Millisecond, rounds)
	res.DeepIdleAvg, res.DeepIdleMax = measure(400*time.Millisecond, rounds/10+1)
	res.BusyHandoff = kernel.DefaultParams().ContextSwitch
	return res, nil
}

package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// latency is the §1 motivation microbenchmark — the one-way propagation
// delay of a message between replicas inside one machine (shared-memory
// mailbox) versus across a LAN; Guerraoui et al. measured 0.55 us vs
// 135 us — followed by the wake_up_process cost model behind the §4.1
// bottleneck: dispatch latency onto a busy core, a briefly idle one (5 ms)
// and a long-idle one (400 ms, the "up to tens of ms" case the paper
// observed).
func latency(seed int64, _ bool) (Report, error) {
	const rounds, wakeRounds = 1000, 500
	report := Report{Exp: "latency", Seed: seed}
	add := func(path string, d time.Duration) {
		report.Points = append(report.Points, Point{
			Labels: []Label{label("path", path)},
			Values: []Named{val("delay_ns", d, "ns")},
		})
	}
	intra, err := mailboxDelay(seed, rounds)
	if err != nil {
		return report, err
	}
	add("shared-memory mailbox", intra)
	inter, err := lanDelay(seed, rounds)
	if err != nil {
		return report, err
	}
	add("LAN", inter)

	if err := wakeLatencies(seed, wakeRounds, add); err != nil {
		return report, err
	}

	d := derive{r: &report}
	d.ratio("lan_over_mailbox", float64(inter), float64(intra))
	return report, d.err
}

// mailboxDelay measures one-way propagation through the shared-memory
// fabric between a sweep deployment's two partitions.
func mailboxDelay(seed int64, rounds int) (time.Duration, error) {
	sys, err := boot(seed)
	if err != nil {
		return 0, err
	}
	defer sys.Sim.Shutdown()
	s := sys.Sim
	ring := sys.Fabric.NewRing("ping", 0, 1<<20)
	var total time.Duration
	received := 0
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ring.Send(p, shm.Message{Kind: 1, Size: 8, W: [7]uint64{uint64(s.Now())}})
			p.Sleep(10 * time.Microsecond)
		}
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		for ; received < rounds; received++ {
			msg := ring.Recv(p)
			total += s.Now().Sub(sim.Time(msg.W[0]))
		}
	})
	if err := s.Run(); err != nil {
		return 0, err
	}
	if received < rounds {
		return 0, fmt.Errorf("bench: latency: %d of %d mailbox messages received", received, rounds)
	}
	return total / time.Duration(rounds), nil
}

// lanDelay measures the one-way delay of a small frame over the LAN link.
func lanDelay(seed int64, rounds int) (time.Duration, error) {
	s := sim.New(seed)
	defer s.Shutdown()
	a := simnet.NewNIC("a", nil)
	b := simnet.NewNIC("b", nil)
	if _, err := simnet.Connect(s, a, b, simnet.LAN135us()); err != nil {
		return 0, err
	}
	var total time.Duration
	var sentAt sim.Time
	received := 0
	b.SetRx(func(simnet.Packet) {
		total += s.Now().Sub(sentAt)
		received++
	})
	for i := 0; i < rounds; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {
			sentAt = s.Now()
			a.Send(simnet.Packet{Size: 64})
		})
	}
	if err := s.Run(); err != nil {
		return 0, err
	}
	if received == 0 {
		return 0, fmt.Errorf("bench: latency: no frame crossed the LAN link")
	}
	return total / time.Duration(received), nil
}

// wakeLatencies samples the scheduler's dispatch penalty on a single-core
// baseline kernel: a task sleeps idle, wakes, and times how much later
// than asked its microsecond of work completes.
func wakeLatencies(seed int64, rounds int, add func(string, time.Duration)) error {
	cfg := core.DefaultConfig(seed)
	cfg.PrimaryCores = 1
	base, err := core.NewBaseline(cfg)
	if err != nil {
		return err
	}
	defer base.Sim.Shutdown()
	s, k := base.Sim, base.Kernel
	add("wake: busy hand-off", cfg.Kernel.ContextSwitch)
	for _, c := range []struct {
		name string
		idle time.Duration
		n    int
	}{
		{"wake: idle 5ms", 5 * time.Millisecond, rounds},
		{"wake: idle 400ms", 400 * time.Millisecond, rounds/10 + 1},
	} {
		var total, worst time.Duration
		k.Spawn("idle-waker", func(t *kernel.Task) {
			for i := 0; i < c.n; i++ {
				t.Sleep(c.idle)
				start := t.Now()
				t.Compute(time.Microsecond)
				lat := t.Now().Sub(start) - time.Microsecond
				total += lat
				worst = max(worst, lat)
			}
		})
		if err := s.Run(); err != nil {
			return err
		}
		add(c.name+", avg", total/time.Duration(c.n))
		add(c.name+", max", worst)
	}
	return nil
}

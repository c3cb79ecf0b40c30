package sim_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestGuardedCallsPanicFromDeadDomain: in a test binary, each guarded call
// made on behalf of a dead kernel — arming an event of its own or of the
// root domain, sending on a ring, transmitting on the wire, loading a driver
// — panics naming the call, whether it comes from a task unwinding or from
// a callback of the kernel's that panicked the kernel and ran on. From a
// live domain the same calls go through.
func TestGuardedCallsPanicFromDeadDomain(t *testing.T) {
	calls := []struct {
		name, guard string // the row, and the call the panic names
		call        func(w *guardWorld)
	}{
		{"Event.Reset", "Event.Reset", func(w *guardWorld) { w.timer.Reset(time.Millisecond) }},
		{"kernel Schedule", "Schedule", func(w *guardWorld) { w.k.Domain().Schedule(0, func() {}) }},
		{"root Schedule", "Schedule", func(w *guardWorld) { w.s.Schedule(0, func() {}) }},
		{"shm send", "shm send", func(w *guardWorld) { w.ring.TrySend(shm.Message{Size: 8}) }},
		{"simnet transmit", "simnet transmit", func(w *guardWorld) { w.nic.Send(simnet.Packet{Size: 64}) }},
		{"LoadDriver", "LoadDriver", func(w *guardWorld) { _ = w.task.LoadDriver(w.dev) }},
	}
	for _, c := range calls {
		for _, from := range []string{"live", "unwinding task", "callback"} {
			t.Run(fmt.Sprintf("%s from %s", c.name, from), func(t *testing.T) {
				w := newGuardWorld(t)
				defer w.s.Shutdown()
				w.task = w.k.Spawn("task", func(tk *kernel.Task) {
					switch from {
					case "live":
						tk.Sleep(time.Millisecond)
						c.call(w)
						return
					case "unwinding task":
						defer c.call(w)
					case "callback":
						return // the callback then fires on the driver's stack, which prints nothing
					}
					tk.Sleep(time.Hour)
				})
				switch from {
				case "unwinding task":
					w.s.Schedule(2*time.Millisecond, func() { w.k.Panic("test", nil) })
				case "callback":
					w.k.Domain().Schedule(time.Millisecond, func() {
						w.k.Panic("test", nil)
						c.call(w)
					})
				}
				got := w.run()
				want := c.guard + ` on behalf of dead domain "k"`
				if from == "live" && got != "" {
					t.Errorf("from a live domain: %s", got)
				}
				if from != "live" && !strings.Contains(got, want) {
					t.Errorf("got %q, want a panic saying %q", got, want)
				}
			})
		}
	}
}

type guardWorld struct {
	s     *sim.Simulation
	k     *kernel.Kernel
	task  *kernel.Task
	timer sim.Event
	ring  *shm.Ring
	nic   *simnet.NIC
	dev   *kernel.Device
}

func newGuardWorld(t *testing.T) *guardWorld {
	s := sim.New(1)
	m := hw.New(s, hw.Opteron6376x4())
	part, err := m.NewPartition("p", 0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(part, kernel.Config{Name: "k"})
	if err != nil {
		t.Fatal(err)
	}
	w := &guardWorld{s: s, k: k, dev: kernel.NewDevice("eth0", time.Millisecond)}
	w.timer.Init(k.Domain(), func() {})
	w.ring = shm.NewFabric(s, time.Microsecond).NewRing("r", 0, 1<<10)
	w.nic = simnet.NewNIC("server", w.dev)
	if _, err := simnet.Connect(s, w.nic, simnet.NewNIC("client", nil), simnet.GigabitEthernet()); err != nil {
		t.Fatal(err)
	}
	return w
}

// run runs the world to its end and returns what it panicked with, "" if
// nothing.
func (w *guardWorld) run() (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	w.s.RunFor(time.Second)
	return ""
}

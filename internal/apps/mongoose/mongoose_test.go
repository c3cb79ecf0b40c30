package mongoose_test

import (
	"testing"
	"time"

	"repro/internal/apps/clients"
	"repro/internal/apps/mongoose"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/simnet"
	"repro/internal/tcprep"
)

func TestServesUnderLoadReplicated(t *testing.T) {
	sys, err := core.New(core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mongoose.DefaultConfig()
	mcfg.Workers = 8
	var st mongoose.Stats
	sys.Run(core.App{Name: "mongoose", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		mongoose.Run(th, socks, mcfg, &st)
	}})
	var ab clients.ABStats
	clients.RunAB(client, clients.ABConfig{
		Port: mcfg.Port, Concurrency: 10, ResponseBytes: mongoose.PageSize(mcfg),
		Duration: time.Second, WarmUp: 200 * time.Millisecond,
	}, &ab)
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if ab.Requests < 100 {
		t.Fatalf("only %d requests completed", ab.Requests)
	}
	if ab.Errors > 0 {
		t.Errorf("%d request errors", ab.Errors)
	}
	if st.Served < ab.Requests {
		t.Errorf("server served %d < client's %d", st.Served, ab.Requests)
	}
	if div := sys.Secondary.NS.Stats().Divergences; div != 0 {
		t.Errorf("%d replay divergences", div)
	}
}

func TestServiceSurvivesFailover(t *testing.T) {
	sys, err := core.New(core.WithSeed(2), func(c *core.Config) { c.Chaos = chaos.MustParse("kill primary @1s core") })
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mongoose.DefaultConfig()
	mcfg.Workers = 8
	var st mongoose.Stats
	sys.Run(core.App{Name: "mongoose", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		mongoose.Run(th, socks, mcfg, &st)
	}})
	var ab clients.ABStats
	clients.RunAB(client, clients.ABConfig{
		Port: mcfg.Port, Concurrency: 5, ResponseBytes: mongoose.PageSize(mcfg),
		Duration: 15 * time.Second,
	}, &ab)
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.LiveAt == 0 {
		t.Fatal("failover did not complete")
	}
	// Requests succeed both before the failure and after promotion; the
	// ones caught in the outage fail or stall, which is expected (their
	// connections are reset or retried by the load generator).
	if ab.Requests < 500 {
		t.Errorf("only %d requests completed across the failover", ab.Requests)
	}
	if !sys.Secondary.Kernel.Alive() {
		t.Error("secondary died")
	}
}

// TestPrimaryRecordsEightSectionsPerRequest pins the primary's det-section
// inventory: a fixed start-up count, then exactly eight sections per served
// request — the listener's accept, mutex_lock and cond_signal; the
// worker's mutex_lock and cond_wait; the connection's recv, send and close.
// The worker's untimed wait records no settling section and no mutex_lock:
// the signal hands it the queue mutex. The count holds whether requests
// arrive one at a time or ten at once.
func TestPrimaryRecordsEightSectionsPerRequest(t *testing.T) {
	const perRequest, startUp = 8, 25
	for _, row := range []struct {
		concurrency int
		duration    time.Duration
	}{{1, 100 * time.Millisecond}, {1, 300 * time.Millisecond}, {10, 300 * time.Millisecond}} {
		sys, err := core.New(core.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		client, err := sys.AttachNetwork(simnet.GigabitEthernet())
		if err != nil {
			t.Fatal(err)
		}
		mcfg := mongoose.DefaultConfig()
		mcfg.Workers = 8
		served := make(map[*replication.Namespace]*mongoose.Stats)
		sys.Run(core.App{Name: "mongoose", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
			st := &mongoose.Stats{}
			served[th.NS()] = st
			mongoose.Run(th, socks, mcfg, st)
		}})
		var ab clients.ABStats
		clients.RunAB(client, clients.ABConfig{
			Port: mcfg.Port, Concurrency: row.concurrency, ResponseBytes: mongoose.PageSize(mcfg),
			Duration: row.duration,
		}, &ab)
		if err := sys.Sim.Run(); err != nil {
			t.Fatal(err)
		}
		st := served[sys.Primary.NS]
		n := st.Served
		if n < 50 || st.Accepted != n || st.Errors > 0 {
			t.Fatalf("concurrency %d: accepted %d, served %d, %d errors", row.concurrency, st.Accepted, n, st.Errors)
		}
		if got, want := sys.Primary.NS.Stats().Sections, uint64(startUp+perRequest*n); got != want {
			t.Errorf("concurrency %d, %d requests: primary recorded %d sections, want %d + %d per request = %d",
				row.concurrency, n, got, startUp, perRequest, want)
		}
	}
}

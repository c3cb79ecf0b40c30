package mongoose_test

import (
	"testing"
	"time"

	"repro/internal/apps/clients"
	"repro/internal/apps/mongoose"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/replication"
	"repro/internal/simnet"
	"repro/internal/tcprep"
)

func TestServesUnderLoadReplicated(t *testing.T) {
	sys, err := core.New(core.WithSeed(1), core.WithRejoin(false))
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
	sys, err := core.New(core.WithSeed(2), core.WithRejoin(false))
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
	sys.InjectPrimaryFailure(time.Second, hw.CoreFailStop)
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

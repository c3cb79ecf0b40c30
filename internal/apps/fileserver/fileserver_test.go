package fileserver_test

import (
	"testing"
	"time"

	"repro/internal/apps/clients"
	"repro/internal/apps/fileserver"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcprep"
	"repro/internal/tcpstack"
)

func verify(t *testing.T) func(int64, []byte) bool {
	t.Helper()
	return func(off int64, data []byte) bool {
		want := make([]byte, len(data))
		fileserver.Fill(want, off)
		for i := range data {
			if data[i] != want[i] {
				return false
			}
		}
		return true
	}
}

func TestTransferIntact(t *testing.T) {
	tcp := tcpstack.DefaultParams()
	tcp.MSS = 32 << 10
	sys, err := core.New(core.WithSeed(1), core.WithRejoin(false), core.WithTCP(tcp))
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	fcfg := fileserver.Config{Port: 80, FileSize: 64 << 20, ChunkBytes: 256 << 10}
	var fst fileserver.Stats
	sys.Run(core.App{Name: "fileserver", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		fileserver.Run(th, socks, fcfg, &fst)
	}})
	var dl clients.DownloadStats
	clients.Download(client, fcfg.Port, fcfg.FileSize, time.Second, verify(t), &dl)
	if err := sys.Sim.RunUntil(sim.Time(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !dl.Complete || dl.Corrupted {
		t.Fatalf("complete=%v corrupted=%v received=%d", dl.Complete, dl.Corrupted, dl.Received)
	}
	// Both replicas run the server (the secondary replays), sharing the
	// stats struct in this test: counts double.
	if fst.Conns != 2 || fst.BytesSent < 2*fcfg.FileSize {
		t.Errorf("server stats = %+v, want doubled counts from both replicas", fst)
	}
}

func TestTransferSurvivesCoherencyLossFailover(t *testing.T) {
	tcp := tcpstack.DefaultParams()
	tcp.MSS = 32 << 10
	sys, err := core.New(core.WithSeed(2), core.WithRejoin(false), core.WithTCP(tcp))
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	fcfg := fileserver.Config{Port: 80, FileSize: 96 << 20, ChunkBytes: 256 << 10}
	var fst fileserver.Stats
	sys.Run(core.App{Name: "fileserver", Main: func(th *replication.Thread, socks *tcprep.Sockets) {
		fileserver.Run(th, socks, fcfg, &fst)
	}})
	var dl clients.DownloadStats
	clients.Download(client, fcfg.Port, fcfg.FileSize, time.Second, verify(t), &dl)
	// The worst §3.5 case: the fault also loses in-flight log messages.
	sys.InjectPrimaryFailure(200*time.Millisecond, hw.CoherencyLoss)
	if err := sys.Sim.RunUntil(sim.Time(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !dl.Complete || dl.Corrupted {
		t.Fatalf("transfer across coherency-loss failover: complete=%v corrupted=%v received=%d",
			dl.Complete, dl.Corrupted, dl.Received)
	}
	// The Fig. 8 signature: zero-rate samples during the outage.
	zeros := 0
	for _, s := range dl.Series {
		if s.Bytes == 0 {
			zeros++
		}
	}
	if zeros < 4 {
		t.Errorf("only %d zero-throughput samples; expected a ~5s outage", zeros)
	}
}

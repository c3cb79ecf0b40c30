// Failover: the paper's headline demo (§4.4), run on a three-replica set.
// A client downloads a large file from the replicated restream server over
// a 1 Gb/s link; mid-transfer the primary partition is killed. The two
// surviving backups elect the one with the higher receipt watermark, and
// the TCP connection survives: after ~5 s of NIC driver reload the
// promoted backup resumes the same byte stream, and the client verifies
// every byte. With quorum 2 of 3, output commit waits for only the faster
// backup's receipt — the paper's two-replica rule is WithReplicaSet(2).
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/apps/clients"
	"repro/internal/apps/restream"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "failover:", err)
		os.Exit(1)
	}
}

func run() error {
	tcp := core.DefaultConfig(1).TCP
	tcp.MSS = 32 << 10 // GSO-style segmentation for the bulk transfer
	sys, err := core.New(
		core.WithSeed(1),
		core.WithReplicaSet(3), // one primary + two backups on balanced fault domains
		core.WithQuorum(2),     // release output on the first backup receipt
		core.WithTCP(tcp),
		core.WithRejoin(false), // single-failure semantics, as in §4.4
	)
	if err != nil {
		return err
	}
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		return err
	}

	scfg := restream.Config{Port: 80, Chunk: 256 << 10, Total: 2 << 30} // 2 GB keeps the demo quick; §4.4 uses 10 GB
	sys.Run(core.App{Name: "stream", State: func() core.AppState { return restream.New(scfg) }})
	var dl clients.DownloadStats
	clients.Download(client, scfg.Port, int64(scfg.Total), time.Second, &dl)

	fmt.Println("downloading 2 GB; killing the primary at t=6s...")
	sys.InjectPrimaryFailure(6*time.Second, hw.CoreFailStop)

	if err := sys.Sim.Run(); err != nil {
		return err
	}

	fmt.Println("\n  per-second download rate (wget's view):")
	for _, s := range dl.Series {
		fmt.Printf("  t=%4.0fs %8.0f Mb/s %s\n", s.At.Seconds(), s.Mbps(), strings.Repeat("*", int(s.Mbps()/25)))
	}
	fmt.Printf("\nfailure detected %v after injection; failover done in %v (NIC driver reload: %v)\n",
		sys.FailedAt.Sub(sim.Time(6*time.Second)), sys.LiveAt.Sub(sys.FailedAt), sys.Cfg.NICDriverLoadTime)
	fmt.Printf("election promoted replica slot %d (the most-caught-up of the two surviving backups)\n",
		sys.Active().Slot())

	// The flight recorder captured the moment the failure was declared:
	// the last acked watermark, the detector's state machine, the replay
	// lag — the post-mortem a real crash would have left behind.
	if sys.Flight != nil {
		fmt.Println()
		sys.Flight.Tail(25).WriteText(os.Stdout)
	}
	fmt.Printf("received %d/%d bytes, complete=%v corrupted=%v\n",
		dl.Received, scfg.Total, dl.Complete, dl.Corrupted)
	if !dl.Complete || dl.Corrupted {
		return fmt.Errorf("transfer did not survive failover intact")
	}
	fmt.Println("the TCP connection survived the primary's death — the client never noticed beyond the stall")
	return nil
}

// Compression: replicate the PBZIP2 parallel compressor and verify that
// the secondary replica computes a bit-identical result — then show the
// burst-versus-sustained throughput split of §4.1.
//
//	go run ./examples/compression
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/apps/pbzip2"
	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/tcprep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "compression:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := pbzip2.DefaultConfig()
	cfg.BlockSize = 50 << 10
	cfg.MaxBlocks = 4000 // a 200 MB slice of the 1 GB file keeps this demo quick

	sys, err := core.New(core.WithSeed(1))
	if err != nil {
		return err
	}
	// sys.Run starts the compressor on every replica; each counts into its
	// own stats, keyed by its namespace.
	stats := make(map[*replication.Namespace]*pbzip2.Stats)
	sys.Run(core.App{Name: "pbzip2", Main: func(th *replication.Thread, _ *tcprep.Sockets) {
		st := new(pbzip2.Stats)
		stats[th.NS()] = st
		pbzip2.Run(th, cfg, st)
	}})
	if err := sys.Sim.Run(); err != nil {
		return err
	}
	pst, sst := stats[sys.Primary.NS], stats[sys.Secondary.NS]

	fmt.Printf("PBZIP2, %d workers, %d KB blocks, %d blocks:\n\n", cfg.Workers, cfg.BlockSize>>10, cfg.MaxBlocks)
	fmt.Printf("  primary:   %4d blocks in %8v  checksum %016x\n", pst.Blocks, pst.FinishedAt, pst.Checksum)
	fmt.Printf("  secondary: %4d blocks in %8v  checksum %016x\n", sst.Blocks, sst.FinishedAt, sst.Checksum)
	want := pbzip2.ExpectChecksum(cfg)
	switch {
	case !pst.Done || !sst.Done:
		return fmt.Errorf("a replica did not finish")
	case pst.Checksum != want || sst.Checksum != want:
		return fmt.Errorf("output mismatch: want checksum %016x", want)
	}
	fmt.Println("\n  outputs are bit-identical across replicas")

	rate := func(times []sim.Time, from, to time.Duration) float64 {
		n := 0
		for _, t := range times {
			if t >= sim.Time(from) && t < sim.Time(to) {
				n++
			}
		}
		return float64(n) / (to - from).Seconds()
	}
	fmt.Printf("\n  burst throughput (0.1-0.5s):  %6.0f blocks/s (log ring still absorbing)\n",
		rate(pst.BlockTimes, 100*time.Millisecond, 500*time.Millisecond))
	fmt.Printf("  sustained (1.5s-end):         %6.0f blocks/s (throttled to the secondary's replay rate)\n",
		rate(pst.BlockTimes, 1500*time.Millisecond, pst.FinishedAt.Duration()))
	st := sys.Fabric.Stats()
	fmt.Printf("  inter-replica traffic: %d messages, %.1f MB\n", st.Messages, float64(st.Bytes)/1e6)
	return nil
}

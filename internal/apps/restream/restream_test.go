package restream_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/apps/clients"
	"repro/internal/apps/restream"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcpstack"
)

// deploy boots a two-replica deployment serving total bytes and starts a
// verifying download. It returns the Server the State factory built for
// each replica at launch, primary first.
func deploy(t *testing.T, seed int64, total int, opts ...core.Option) (*core.System, *clients.DownloadStats, []*restream.Server) {
	t.Helper()
	tcp := tcpstack.DefaultParams()
	tcp.MSS = 32 << 10
	sys, err := core.New(append([]core.Option{core.WithSeed(seed), core.WithTCP(tcp)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	cfg := restream.Config{Port: 80, Chunk: 256 << 10, Total: total}
	var insts []*restream.Server
	sys.Run(core.App{Name: "stream", State: func() core.AppState {
		s := restream.New(cfg)
		insts = append(insts, s)
		return s
	}})
	var dl clients.DownloadStats
	clients.Download(client, cfg.Port, int64(total), time.Second, &dl)
	return sys, &dl, insts
}

func TestTransferIntact(t *testing.T) {
	const total = 64 << 20
	sys, dl, insts := deploy(t, 1, total)
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !dl.Complete || dl.Corrupted {
		t.Fatalf("complete=%v corrupted=%v received=%d", dl.Complete, dl.Corrupted, dl.Received)
	}
	// Both replicas run the server (the secondary replays): each instance
	// must have streamed the whole transfer and closed.
	if len(insts) != 2 {
		t.Fatalf("State built %d instances, want one per replica", len(insts))
	}
	for i, s := range insts {
		if !s.Done() || s.Off() != total {
			t.Errorf("replica %d: done=%v off=%d, want done at %d", i, s.Done(), s.Off(), total)
		}
	}
}

func TestTransferSurvivesCoherencyLossFailover(t *testing.T) {
	// The worst §3.5 case: the fault also loses in-flight log messages.
	sys, dl, _ := deploy(t, 2, 96<<20, func(c *core.Config) { c.Chaos = chaos.MustParse("kill primary @200ms coherency") })
	if err := sys.Sim.Run(); err != nil {
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

// TestSnapshotRestoreRoundTrip: a snapshot restored into a fresh Server
// snapshots back byte for byte, mid-transfer and after it, and restoring
// nothing leaves the fresh-boot state a genesis-seeded replica starts from.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	const total = 8 << 20
	cfg := restream.Config{Port: 80, Chunk: 256 << 10, Total: total}
	roundTrip := func(stage string, s *restream.Server) {
		t.Helper()
		snap := s.AppendSnapshot(nil)
		r := restream.New(cfg)
		r.Restore(snap)
		if got := r.AppendSnapshot(nil); !bytes.Equal(got, snap) {
			t.Errorf("%s: restored snapshot %x, want %x", stage, got, snap)
		}
		if r.Off() != s.Off() || r.Done() != s.Done() || r.Dirtied() != s.Dirtied() {
			t.Errorf("%s: restored off=%d done=%v dirtied=%d, want %d %v %d",
				stage, r.Off(), r.Done(), r.Dirtied(), s.Off(), s.Done(), s.Dirtied())
		}
	}

	sys, dl, insts := deploy(t, 3, total)
	if err := sys.Sim.RunUntil(sim.Time(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	primary := insts[0]
	if primary.Off() == 0 || primary.Done() {
		t.Fatalf("primary at off=%d done=%v, want mid-transfer", primary.Off(), primary.Done())
	}
	roundTrip("mid-transfer", primary)
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !dl.Complete || !primary.Done() {
		t.Fatalf("transfer complete=%v, primary done=%v", dl.Complete, primary.Done())
	}
	roundTrip("done", primary)

	fresh := restream.New(cfg)
	fresh.Restore(nil)
	if !bytes.Equal(fresh.AppendSnapshot(nil), restream.New(cfg).AppendSnapshot(nil)) ||
		fresh.Off() != 0 || fresh.Done() || fresh.Dirtied() != 0 {
		t.Errorf("Restore(nil) moved a fresh server: off=%d done=%v dirtied=%d",
			fresh.Off(), fresh.Done(), fresh.Dirtied())
	}
}

// TestFillMatchesFormula compares Fill, which copies from a table of stream
// periods, with the stream's per-byte formula over random ranges: offsets
// and lengths straddling 256-byte periods and 64 KiB rows, and offsets far
// into a multi-GiB stream.
func TestFillMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 3<<16)
	for i := 0; i < 2000; i++ {
		var off int
		switch i % 4 {
		case 0:
			off = rng.Intn(1 << 20)
		case 1:
			off = rng.Intn(1<<16)<<8 + 256 - rng.Intn(8) // just before a period boundary
		case 2:
			off = rng.Intn(1<<16)<<16 - rng.Intn(300) // just before a row of 256 periods
		default:
			off = rng.Intn(1 << 34)
		}
		off = max(off, 0)
		n := rng.Intn(len(buf) + 1)
		if i%3 == 0 {
			n = rng.Intn(600)
		}
		b := buf[:n]
		restream.Fill(b, off)
		for j, got := range b {
			x := off + j
			if want := byte(x*31 + (x >> 8) + (x >> 16)); got != want {
				t.Fatalf("Fill(%d bytes at %d): byte %d is %d, want %d", n, off, x, got, want)
			}
		}
	}
}

// BenchmarkFill fills 256 KiB of stream at an unaligned offset.
func BenchmarkFill(b *testing.B) {
	buf := make([]byte, 256<<10)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		restream.Fill(buf, i*len(buf)+77)
	}
}

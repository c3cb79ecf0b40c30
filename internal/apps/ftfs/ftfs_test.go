package ftfs_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/apps/ftfs"
	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/tcprep"
)

func TestBasicOperations(t *testing.T) {
	base, err := core.NewBaseline(core.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	base.LaunchApp("fs", nil, func(th *replication.Thread, _ *tcprep.Sockets) {
		fs := ftfs.New(th.NS())
		if _, err := fs.Open(th, "missing"); !errors.Is(err, ftfs.ErrNotExist) {
			t.Errorf("Open missing: %v", err)
		}
		h, err := fs.Create(th, "a.txt")
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		if _, err := fs.Create(th, "a.txt"); !errors.Is(err, ftfs.ErrExist) {
			t.Errorf("double Create: %v", err)
		}
		if _, err := h.Write(th, []byte("hello world")); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if size, err := fs.Stat(th, "a.txt"); err != nil || size != 11 {
			t.Errorf("Stat = %d, %v", size, err)
		}
		h.SeekTo(6)
		var got []byte
		for {
			data, err := h.Read(th, 64)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if len(data) == 0 {
				break
			}
			got = append(got, data...)
		}
		if string(got) != "world" {
			t.Errorf("read %q, want world", got)
		}
		// Overwrite mid-file.
		h.SeekTo(0)
		if _, err := h.Write(th, []byte("HELLO")); err != nil {
			t.Fatal(err)
		}
		h.SeekTo(0)
		data, _ := h.Read(th, 5)
		if len(data) > 0 && data[0] != 'H' {
			t.Errorf("overwrite not visible: %q", data)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(th, []byte("x")); !errors.Is(err, ftfs.ErrClosed) {
			t.Errorf("write after close: %v", err)
		}
		if names := fs.List(th); len(names) != 1 || names[0] != "a.txt" {
			t.Errorf("List = %v", names)
		}
		if err := fs.Remove(th, "a.txt"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove(th, "a.txt"); !errors.Is(err, ftfs.ErrNotExist) {
			t.Errorf("double Remove: %v", err)
		}
	})
	if err := base.Sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// fsWorkload has several threads concurrently creating, appending to, and
// reading files; the final FS checksum captures the complete state.
func fsWorkload(sum *uint64, reads *[]int) func(*replication.Thread) {
	return func(root *replication.Thread) {
		fs := ftfs.New(root.NS())
		var threads []*replication.Thread
		for i := 0; i < 4; i++ {
			i := i
			threads = append(threads, root.NS().SpawnThread(root, "writer", func(th *replication.Thread) {
				name := string(rune('a' + i%2)) // two files, contended
				h, err := fs.Create(th, name)
				if errors.Is(err, ftfs.ErrExist) {
					h, err = fs.Open(th, name)
				}
				if err != nil {
					return
				}
				for j := 0; j < 20; j++ {
					th.Task().Compute(time.Duration(th.Task().Kernel().Sim().Rand().Intn(100)) * time.Microsecond)
					size, _ := fs.Stat(th, name)
					h.SeekTo(size) // append
					_, _ = h.Write(th, []byte{byte(i), byte(j)})
				}
				h.SeekTo(0)
				for {
					data, err := h.Read(th, 7)
					if err != nil || len(data) == 0 {
						break
					}
					*reads = append(*reads, len(data))
				}
				_ = h.Close()
			}))
		}
		for _, th := range threads {
			root.Join(th)
		}
		*sum = fs.Checksum(root)
	}
}

func TestReplicatedFSStateIdentical(t *testing.T) {
	// The §6 claim: a user-space POSIX file system replicates with plain
	// SMR — mutations are deterministic under the replicated lock order
	// and short-read lengths are recorded/replayed.
	sys, err := core.New(core.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	var pSum, sSum uint64
	var pReads, sReads []int
	sys.Primary.NS.Start("fs", nil, fsWorkload(&pSum, &pReads))
	sys.Secondary.NS.Start("fs", nil, fsWorkload(&sSum, &sReads))
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if pSum == 0 || pSum != sSum {
		t.Fatalf("file-system state diverged: primary %x, secondary %x", pSum, sSum)
	}
	if len(pReads) == 0 || len(pReads) != len(sReads) {
		t.Fatalf("read sequences: %d vs %d", len(pReads), len(sReads))
	}
	for i := range pReads {
		if pReads[i] != sReads[i] {
			t.Fatalf("short-read lengths diverged at %d: %v vs %v", i, pReads[i], sReads[i])
		}
	}
	short := false
	for _, n := range pReads {
		if n > 0 && n < 7 {
			short = true
		}
	}
	if !short {
		t.Log("note: no short read occurred this run (model randomness)")
	}
	if div := sys.Secondary.NS.Stats().Divergences; div != 0 {
		t.Errorf("%d replay divergences", div)
	}
}

func TestReplicatedFSSurvivesFailover(t *testing.T) {
	sys, err := core.New(core.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	var pSum, sSum uint64
	var pReads, sReads []int
	sys.Primary.NS.Start("fs", nil, fsWorkload(&pSum, &pReads))
	sys.Secondary.NS.Start("fs", nil, fsWorkload(&sSum, &sReads))
	sys.InjectPrimaryFailure(2*time.Millisecond, 0)
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if pSum != 0 {
		t.Skip("primary finished before the injected failure")
	}
	if sSum == 0 {
		t.Fatal("secondary did not complete the workload after failover")
	}
	if sys.Secondary.NS.Role() != replication.RoleLive {
		t.Error("secondary not live")
	}
}

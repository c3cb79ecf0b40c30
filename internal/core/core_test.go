package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/restream"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcprep"
	"repro/internal/tcpstack"
)

// quietSystem boots the paper's two-replica deployment with the random
// deep-idle wake penalty disabled so tests can make exact assertions
// (benchmarks keep it on).
func quietSystem(t *testing.T, seed int64, opts ...core.Option) *core.System {
	t.Helper()
	sys, err := core.New(append([]core.Option{
		core.WithSeed(seed), core.WithKernelParams(quietParams()),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// withMSS sets both replicas' TCP segment size (GSO-style large segments
// for bulk transfers).
func withMSS(mss int) core.Option {
	tcp := tcpstack.DefaultParams()
	tcp.MSS = mss
	return core.WithTCP(tcp)
}

// echoApp accepts connections and echoes each request prefixed with "re:".
func echoApp(port, nRequests int, done *int) func(*replication.Thread, *tcprep.Sockets) {
	return func(th *replication.Thread, socks *tcprep.Sockets) {
		l, err := socks.Listen(th, port, 64)
		if err != nil {
			return
		}
		for i := 0; i < nRequests; i++ {
			c := l.Accept(th)
			data, err := c.Recv(th, 4096)
			if err != nil {
				continue
			}
			if _, err := c.Send(th, append([]byte("re:"), data...)); err != nil {
				continue
			}
			_ = c.Close(th)
			*done++
		}
	}
}

func TestReplicatedEchoService(t *testing.T) {
	t.Parallel()
	sys := quietSystem(t, 1)
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	var pDone, sDone int
	sys.Primary.NS.Start("echo", nil, func(th *replication.Thread) {
		echoApp(80, 5, &pDone)(th, sys.Primary.Sockets)
	})
	sys.Secondary.NS.Start("echo", nil, func(th *replication.Thread) {
		echoApp(80, 5, &sDone)(th, sys.Secondary.Sockets)
	})

	var replies []string
	client.Kernel.Spawn("client", func(tk *kernel.Task) {
		for i := 0; i < 5; i++ {
			c, err := client.Stack.Connect(tk, client.ServerAddr(80))
			if err != nil {
				t.Errorf("connect %d: %v", i, err)
				return
			}
			msg := []byte{byte('a' + i)}
			if _, err := c.Send(tk, msg); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			data, err := c.Recv(tk, 4096)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			replies = append(replies, string(data))
			_ = c.Close(tk)
		}
	})
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(replies) != 5 {
		t.Fatalf("got %d replies, want 5: %v", len(replies), replies)
	}
	for i, r := range replies {
		want := "re:" + string(byte('a'+i))
		if r != want {
			t.Errorf("reply %d = %q, want %q", i, r, want)
		}
	}
	if pDone != 5 {
		t.Errorf("primary served %d, want 5", pDone)
	}
	if sDone != 5 {
		t.Errorf("secondary replayed %d, want 5", sDone)
	}
	if div := sys.Secondary.NS.Stats().Divergences; div != 0 {
		t.Errorf("replay divergences: %d", div)
	}
	if sys.Fabric.Stats().Messages == 0 {
		t.Error("no inter-replica traffic recorded")
	}
}

// TestAcceptAfterClientReset: the stack still hands the application a
// connection the client reset — and the stack reaped — before the accept.
// The primary has forgotten the connection's sync id by then, so the socket
// binding must name it by four-tuple, or the backup's replayed accept waits
// for a binding that never arrives and replay stops for good.
func TestAcceptAfterClientReset(t *testing.T) {
	t.Parallel()
	sys := quietSystem(t, 1)
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	var pDone, sDone, pReset, sReset int
	app := func(done, reset *int, socks *tcprep.Sockets) func(*replication.Thread) {
		return func(th *replication.Thread) {
			l, err := socks.Listen(th, 80, 64)
			if err != nil {
				return
			}
			th.Task().Sleep(20 * time.Millisecond) // both connections are queued, the first already reset
			for i := 0; i < 2; i++ {
				c := l.Accept(th)
				data, err := c.Recv(th, 4096)
				if err != nil {
					*reset++
					_ = c.Close(th)
					continue
				}
				_, _ = c.Send(th, append([]byte("re:"), data...))
				_ = c.Close(th)
				*done++
			}
		}
	}
	sys.Primary.NS.Start("echo", nil, app(&pDone, &pReset, sys.Primary.Sockets))
	sys.Secondary.NS.Start("echo", nil, app(&sDone, &sReset, sys.Secondary.Sockets))

	var reply string
	client.Kernel.Spawn("client", func(tk *kernel.Task) {
		c, err := client.Stack.Connect(tk, client.ServerAddr(80))
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		c.Abort()
		if c, err = client.Stack.Connect(tk, client.ServerAddr(80)); err != nil {
			t.Errorf("second connect: %v", err)
			return
		}
		if _, err := c.Send(tk, []byte("x")); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		data, err := c.Recv(tk, 4096)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		reply = string(data)
		_ = c.Close(tk)
	})
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if reply != "re:x" {
		t.Errorf("reply %q, want re:x", reply)
	}
	if pReset != 1 || pDone != 1 {
		t.Fatalf("primary: %d reset, %d served; want the reset connection accepted, then one served", pReset, pDone)
	}
	if sReset != 1 || sDone != 1 {
		t.Errorf("backup replayed %d reset, %d served; want 1 and 1 (replay stuck in accept?)", sReset, sDone)
	}
	if div := sys.Secondary.NS.Stats().Divergences; div != 0 {
		t.Errorf("replay divergences: %d", div)
	}
}

func checkPattern(t *testing.T, got []byte) {
	t.Helper()
	want := make([]byte, 64<<10)
	for off := 0; off < len(got); off += len(want) {
		g := got[off:min(off+len(want), len(got))]
		w := want[:len(g)]
		restream.Fill(w, off)
		if bytes.Equal(g, w) {
			continue
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("stream corrupted at offset %d (%d vs %d)", off+i, g[i], w[i])
			}
		}
	}
}

// download pulls the whole stream into *got, which the caller sizes for it,
// and records when it ended.
func download(t *testing.T, client *core.Client, port int, got *[]byte, doneAt *sim.Time) {
	client.Kernel.Spawn("wget", func(tk *kernel.Task) {
		c, err := client.Stack.Connect(tk, client.ServerAddr(port))
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		for {
			data, err := c.Recv(tk, 256<<10)
			if errors.Is(err, tcpstack.EOF) {
				break
			}
			if err != nil {
				t.Errorf("recv after %d bytes: %v", len(*got), err)
				return
			}
			*got = append(*got, data...)
		}
		*doneAt = tk.Now()
		_ = c.Close(tk)
	})
}

func TestFailoverTransparentToClient(t *testing.T) {
	t.Parallel()
	// Kill the primary mid-transfer with a core fail-stop.
	sys := quietSystem(t, 2, withMSS(16<<10), withChaos("kill primary @200ms core"))
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	const total = 64 << 20 // 64 MiB ~= 0.6s on the wire at 1 Gb/s
	sys.Run(plainStream(total))

	got := make([]byte, 0, total)
	var doneAt sim.Time
	download(t, client, 80, &got, &doneAt)

	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("client received %d bytes, want %d", len(got), total)
	}
	checkPattern(t, got)
	if sys.FailedAt == 0 || sys.LiveAt == 0 {
		t.Fatalf("failover did not run: failedAt=%v liveAt=%v", sys.FailedAt, sys.LiveAt)
	}
	// Detection: within heart-beat timeout + slack of the injection.
	detect := sys.FailedAt.Sub(sim.Time(200 * time.Millisecond))
	if detect > 100*time.Millisecond {
		t.Errorf("detection took %v, want <100ms", detect)
	}
	// Promotion is dominated by the 5s NIC driver reload (§4.4).
	gap := sys.LiveAt.Sub(sys.FailedAt)
	if gap < 5*time.Second || gap > 6*time.Second {
		t.Errorf("failover took %v, want ~5s (driver reload)", gap)
	}
	if doneAt < sys.LiveAt {
		t.Error("transfer finished before failover completed?")
	}
	if sys.Active() != sys.Secondary {
		t.Error("the promoted secondary is not the active replica")
	}
	wantRejoined(t, sys, "after the primary's death")
}

func TestFailoverWithCoherencyLoss(t *testing.T) {
	t.Parallel()
	// The §3.5 case: the fault disrupts cache coherency, losing the
	// primary's in-flight log messages. Strict output commit guarantees
	// the client still observes a consistent stream.
	sys := quietSystem(t, 3, withMSS(16<<10), func(c *core.Config) { c.Replication.StrictOutputCommit = true },
		withChaos("kill primary @100ms coherency"))
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	const total = 16 << 20
	sys.Run(plainStream(total))
	got := make([]byte, 0, total)
	var doneAt sim.Time
	download(t, client, 80, &got, &doneAt)
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("client received %d bytes, want %d", len(got), total)
	}
	checkPattern(t, got)
}

func TestSecondaryFailurePrimaryContinues(t *testing.T) {
	t.Parallel()
	sys := quietSystem(t, 4)
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	const total = 8 << 20
	sys.Run(plainStream(total))
	got := make([]byte, 0, total)
	var doneAt sim.Time
	download(t, client, 80, &got, &doneAt)
	// Kill the SECONDARY mid-transfer.
	sys.Machine.InjectAfter(100*time.Millisecond, hw.Fault{Kind: hw.CoreFailStop, Node: 4, Core: -1, Addr: -1})
	// Until the repaired partition rejoins, the primary serves alone.
	sys.Sim.Schedule(time.Second, func() {
		if st := sys.State(); st != core.StateDegraded {
			t.Errorf("state after backup death = %v, want degraded", st)
		}
		if err := sys.Healthy(); !errors.Is(err, core.ErrDegraded) {
			t.Errorf("Healthy = %v, want ErrDegraded", err)
		}
		if sys.Active() != sys.Primary || sys.Standby() != nil {
			t.Error("active/standby roles wrong after backup death")
		}
		if r := sys.Primary.NS.Role(); r != replication.RoleLive {
			t.Errorf("primary role = %v, want live after secondary death", r)
		}
	})
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("client received %d bytes, want %d", len(got), total)
	}
	checkPattern(t, got)
	if !sys.Primary.Kernel.Alive() || sys.Active() != sys.Primary {
		t.Error("primary died or lost the recording role")
	}
	wantRejoined(t, sys, "after the secondary's death")
}

// TestSilentDeathAfterLastOutputIsDetected: a primary that dies without a
// machine-check report once its work is done — nothing left in the queue
// but heart-beats, which never hold a run open — is still noticed by the
// backup's monitor and failed over before Run returns: the death itself
// holds the run open for its detection.
func TestSilentDeathAfterLastOutputIsDetected(t *testing.T) {
	t.Parallel()
	sys := quietSystem(t, 9)
	client, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	sys.Run(core.App{Name: "echo", Main: echoApp(80, 1, &done)})
	var reply string
	client.Kernel.Spawn("client", func(tk *kernel.Task) {
		c, err := client.Stack.Connect(tk, client.ServerAddr(80))
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		_, _ = c.Send(tk, []byte("x"))
		data, _ := c.Recv(tk, 64)
		reply = string(data)
		_ = c.Close(tk)
	})
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if reply != "re:x" || done != 2 {
		t.Fatalf("reply %q, %d replicas served; want re:x from both", reply, done)
	}
	diedAt := sys.Sim.Now()
	sys.Primary.Kernel.Panic("silent death", nil)
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.FailedAt <= diedAt || sys.LiveAt == 0 {
		t.Fatalf("primary died silently at %v; failure declared at %v, live at %v: want both before Run returned", diedAt, sys.FailedAt, sys.LiveAt)
	}
	wantRejoined(t, sys, "after the silent death")
}

func TestBaselineEcho(t *testing.T) {
	t.Parallel()
	cfg := core.DefaultConfig(5)
	cfg.Kernel = quietParams()
	b, err := core.NewBaseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, err := b.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		t.Fatal(err)
	}
	var done int
	b.LaunchApp("echo", nil, echoApp(80, 3, &done))
	var replies int
	client.Kernel.Spawn("client", func(tk *kernel.Task) {
		for i := 0; i < 3; i++ {
			c, err := client.Stack.Connect(tk, client.ServerAddr(80))
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			_, _ = c.Send(tk, []byte("x"))
			if data, err := c.Recv(tk, 64); err == nil && string(data) == "re:x" {
				replies++
			}
			_ = c.Close(tk)
		}
	})
	if err := b.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if replies != 3 || done != 3 {
		t.Errorf("replies=%d done=%d, want 3/3", replies, done)
	}
}

func TestMemFaultInUserSpaceDoesNotKillKernel(t *testing.T) {
	t.Parallel()
	sys := quietSystem(t, 6)
	// Allocate user memory on the primary, then hit it with a DUE.
	if err := sys.Primary.Kernel.Mem().Alloc(kernelUserClass(), 4<<30); err != nil {
		t.Fatal(err)
	}
	addr := sys.Primary.Kernel.Mem().Bytes(kernelIgnoredClass()) + (1 << 30)
	sys.Machine.InjectAfter(time.Millisecond, hw.Fault{Kind: hw.MemUncorrected, Node: 0, Core: -1, Addr: addr})
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !sys.Primary.Kernel.Alive() {
		t.Error("user-space memory fault killed the kernel")
	}
	if sys.FailedAt != 0 {
		t.Error("failover triggered for a survivable fault")
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	t.Parallel()
	run := func() (int64, int64) {
		sys := quietSystem(t, 42)
		client, err := sys.AttachNetwork(simnet.GigabitEthernet())
		if err != nil {
			t.Fatal(err)
		}
		var done int
		sys.Run(core.App{Name: "echo", Main: echoApp(80, 3, &done)})
		client.Kernel.Spawn("client", func(tk *kernel.Task) {
			for i := 0; i < 3; i++ {
				c, err := client.Stack.Connect(tk, client.ServerAddr(80))
				if err != nil {
					return
				}
				_, _ = c.Send(tk, []byte("q"))
				_, _ = c.Recv(tk, 64)
				_ = c.Close(tk)
			}
		})
		if err := sys.Sim.Run(); err != nil {
			t.Fatal(err)
		}
		st := sys.Fabric.Stats()
		return st.Messages, st.Bytes
	}
	m1, b1 := run()
	m2, b2 := run()
	if m1 != m2 || b1 != b2 {
		t.Errorf("nondeterministic runs: %d/%d vs %d/%d messages/bytes", m1, b1, m2, b2)
	}
}

// kmem class helpers keep the test readable without importing kmem at the
// top-level test scope.
func kernelUserClass() kmem.PageClass    { return kmem.User }
func kernelIgnoredClass() kmem.PageClass { return kmem.KernelIgnored }

// TestFailoverAtRandomPointsSeedSweep implements the DESIGN.md failure-
// injection strategy: across several seeds, the primary is killed at a
// random point of the transfer (sometimes during the handshake, sometimes
// mid-stream, with varying fault kinds) and the client-visible byte stream
// must always be complete and intact. The kill is a chaos schedule, so its
// time and kind are drawn before boot, from a stream of the test's seed.
func TestFailoverAtRandomPointsSeedSweep(t *testing.T) {
	t.Parallel()
	kinds := []string{"core", "bus", "coherency"}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewPCG(uint64(seed), 0))
		failAt := time.Duration(10+rng.IntN(200)) * time.Millisecond
		kind := kinds[rng.IntN(len(kinds))]
		sys := quietSystem(t, seed, withMSS(32<<10), withChaos(fmt.Sprintf("kill primary @%v %s", failAt, kind)))
		client, err := sys.AttachNetwork(simnet.GigabitEthernet())
		if err != nil {
			t.Fatal(err)
		}
		const total = 16 << 20
		sys.Run(plainStream(total))
		got := make([]byte, 0, total)
		var doneAt sim.Time
		download(t, client, 80, &got, &doneAt)
		if err := sys.Sim.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != total {
			t.Fatalf("seed %d (%v at %v): received %d/%d bytes", seed, kind, failAt, len(got), total)
		}
		checkPattern(t, got)
		wantRejoined(t, sys, fmt.Sprintf("seed %d (%v at %v)", seed, kind, failAt))
	}
}

// TestReplicationServersAreEvents is a census of the replication processes
// a deployment switches in. A server that only receives or only computes is
// an event chain, not a process: the recorder's acks receivers (ft-ack), the
// backup's receipt and replay dispatch (ft-replay at one shard, the ft-grant
// lanes at four) and its TCP-state maintainer (tcprep-sync). An N = 3
// deployment serving a download at one and at four det shards switches none
// of them in, while each backup replays the download's sections and applies
// its sync updates.
func TestReplicationServersAreEvents(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{1, 4} {
		sys := quietSystem(t, 3, core.WithReplicaSet(3), core.WithDetShards(shards))
		client, err := sys.AttachNetwork(simnet.GigabitEthernet())
		if err != nil {
			t.Fatal(err)
		}
		switches := make(map[string]int) // by task name, the kernel, lane and tid stripped
		sys.Sim.OnSwitch = func(_ sim.Time, proc string) {
			name := proc[strings.Index(proc, "/")+1:]
			switches[strings.TrimRight(name[:strings.LastIndex(name, ".")], ".0123456789")]++
		}
		const total = 1 << 20
		sys.Run(plainStream(total))
		got := make([]byte, 0, total)
		var doneAt sim.Time
		download(t, client, 80, &got, &doneAt)
		if err := sys.Sim.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != total {
			t.Fatalf("shards=%d: downloaded %d of %d bytes", shards, len(got), total)
		}
		for _, b := range sys.Backups() {
			if st := b.NS.Stats(); st.Sections == 0 || st.Divergences != 0 || b.TCPSync.Updates == 0 {
				t.Fatalf("shards=%d: slot %d replayed %d sections with %d divergences and applied %d sync updates",
					shards, b.Slot(), st.Sections, st.Divergences, b.TCPSync.Updates)
			}
		}
		for _, name := range []string{"ft-ack", "ft-replay", "ft-grant", "tcprep-sync"} {
			if n := switches[name]; n != 0 {
				t.Errorf("shards=%d: %s switched in %d times, want never", shards, name, n)
			}
		}
		if switches["wget"] == 0 {
			t.Errorf("shards=%d: the census saw no switch at all: %v", shards, switches)
		}
	}
}

// TestTCPSyncBatchingCoalesces runs the same echo workload under per-update
// streaming (Replication.BatchTuples=1, the one flush policy of both
// streams) and the default batched policy: the
// secondary must end up with the identical logical TCP state either way
// (same synced input bytes, zero divergences), while the batched run ships
// the update stream in strictly fewer ring transfers and drains at least
// some of them as vectored deliveries. At either size the flush deadlines
// of both replication streams are events: each stream's one process, the
// spill server, runs once at boot, parks, and is never woken while its ring
// has room — and nothing named a flusher exists.
func TestTCPSyncBatchingCoalesces(t *testing.T) {
	t.Parallel()
	run := func(batch int) (*core.System, int, []string) {
		sys := quietSystem(t, 8, func(c *core.Config) { c.Replication.BatchTuples = batch })
		client, err := sys.AttachNetwork(simnet.GigabitEthernet())
		if err != nil {
			t.Fatal(err)
		}
		switches := make(map[string]int) // by task name, the kernel and tid stripped
		sys.Sim.OnSwitch = func(_ sim.Time, proc string) {
			name := proc[strings.Index(proc, "/")+1:]
			switches[name[:strings.LastIndex(name, ".")]]++
		}
		const n = 8
		var pDone, sDone int
		sys.Primary.NS.Start("echo", nil, func(th *replication.Thread) {
			echoApp(80, n, &pDone)(th, sys.Primary.Sockets)
		})
		sys.Secondary.NS.Start("echo", nil, func(th *replication.Thread) {
			echoApp(80, n, &sDone)(th, sys.Secondary.Sockets)
		})
		var replies []string
		client.Kernel.Spawn("client", func(tk *kernel.Task) {
			req := make([]byte, 1024)
			for i := 0; i < n; i++ {
				c, err := client.Stack.Connect(tk, client.ServerAddr(80))
				if err != nil {
					t.Errorf("connect %d: %v", i, err)
					return
				}
				restream.Fill(req, i)
				if _, err := c.Send(tk, req); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				data, err := c.Recv(tk, 4096)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				replies = append(replies, string(data[:3]))
				_ = c.Close(tk)
			}
		})
		if err := sys.Sim.Run(); err != nil {
			t.Fatal(err)
		}
		if sDone != n {
			t.Fatalf("batch=%d: secondary replayed %d of %d requests", batch, sDone, n)
		}
		if div := sys.Secondary.NS.Stats().Divergences; div != 0 {
			t.Fatalf("batch=%d: %d replay divergences", batch, div)
		}
		for name, count := range switches {
			if strings.Contains(name, "flush") {
				t.Errorf("batch=%d: a flusher process exists: %q switched in %d times", batch, name, count)
			}
		}
		if switches["ft-spill"] != 1 || switches["tcprep-spill"] != 1 {
			t.Errorf("batch=%d: ft-spill switched in %d times, tcprep-spill %d; want once each (boot): a spill server was woken while its ring had room",
				batch, switches["ft-spill"], switches["tcprep-spill"])
		}
		return sys, sDone, replies
	}

	sysU, _, repU := run(1)
	sysB, _, repB := run(8)
	for i := range repU {
		if repU[i] != "re:" || repB[i] != "re:" {
			t.Fatalf("reply %d corrupted: %q / %q", i, repU[i], repB[i])
		}
	}
	secU, secB := sysU.Secondary.TCPSync, sysB.Secondary.TCPSync
	primB := sysB.Primary.TCPPrim
	t.Logf("unbatched: updates=%d dataBytes=%d batches=%d", secU.Updates, secU.DataBytes, secU.Batches)
	t.Logf("batched:   updates=%d dataBytes=%d batches=%d flushes=%d coalesced=%d",
		secB.Updates, secB.DataBytes, secB.Batches, primB.SyncFlushes, primB.SyncCoalesced)
	if secU.DataBytes != secB.DataBytes {
		t.Errorf("synced input bytes differ: %d unbatched vs %d batched", secU.DataBytes, secB.DataBytes)
	}
	// Coalesced entries carry several logical updates in one message, so the
	// batched secondary applies at most as many messages as the unbatched one.
	if secB.Updates > secU.Updates {
		t.Errorf("batched run applied %d updates, unbatched only %d", secB.Updates, secU.Updates)
	}
	// The whole point: fewer ring transfers for the same state stream.
	if primB.SyncFlushes >= secU.Updates {
		t.Errorf("batched run used %d ring transfers, not fewer than %d unbatched", primB.SyncFlushes, secU.Updates)
	}
	if secB.Batches == 0 {
		t.Error("batched run drained no vectored deliveries")
	}
}

// TestWaitReportsAHang: a run that goes quiet while an app main has not
// returned is a *core.HangError naming each stuck task and what it waits on
// — here a waiter nobody signals, parked on its condition variable on both
// replicas. The same app with the signal returns no error: a recorder's
// parked spill server is not a hang.
func TestWaitReportsAHang(t *testing.T) {
	t.Parallel()
	for _, signal := range []bool{false, true} {
		sys := quietSystem(t, 1)
		var cond uint64
		sys.Run(core.App{Name: "app", Main: func(root *replication.Thread, _ *tcprep.Sockets) {
			lib := root.Lib()
			m, c := lib.NewMutex(), lib.NewCond()
			cond = c.ID()
			w := root.NS().SpawnThread(root, "lonely", func(th *replication.Thread) {
				m.Lock(th.Task())
				c.Wait(th.Task(), m)
				m.Unlock(th.Task())
			})
			root.Task().Sleep(time.Millisecond)
			if signal {
				m.Lock(root.Task())
				c.Signal(root.Task())
				m.Unlock(root.Task())
			}
			root.Join(w)
		}})
		err := sys.Wait()
		if signal {
			if err != nil {
				t.Errorf("signalled run: Wait = %v, want nil", err)
			}
			continue
		}
		var hang *core.HangError
		if !errors.As(err, &hang) {
			t.Fatalf("Wait = %v, want a *core.HangError", err)
		}
		for _, side := range []string{"primary", "secondary"} {
			want := fmt.Sprintf("%s/lonely.", side)
			found := false
			for _, s := range hang.Stuck {
				found = found || strings.HasPrefix(s, want) && strings.HasSuffix(s, fmt.Sprintf(": cond %d", cond))
			}
			if !found {
				t.Errorf("hang %v does not name %s's waiter on cond %d", hang.Stuck, side, cond)
			}
		}
		if msg := hang.Error(); !strings.HasPrefix(msg, "core: hang at ") || !strings.Contains(msg, strings.Join(hang.Stuck, "; ")) {
			t.Errorf("HangError.Error = %q, want the instant and every stuck task", msg)
		}
		for _, s := range hang.Stuck {
			if strings.Contains(s, "ft-spill") {
				t.Errorf("hang %v counts the recorder's parked spill server", hang.Stuck)
			}
		}
	}
}

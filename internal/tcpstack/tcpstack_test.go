package tcpstack

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// pair is a client and server machine joined by a link.
type pair struct {
	sim            *sim.Simulation
	serverK        *kernel.Kernel
	clientK        *kernel.Kernel
	server, client *Stack
	serverNIC      *simnet.NIC
	clientNIC      *simnet.NIC
	link           *simnet.Link
}

func newPair(t testing.TB, seed int64, params Params) *pair {
	t.Helper()
	return newPairOn(t, seed, params, simnet.GigabitEthernet())
}

func newPairOn(t testing.TB, seed int64, params Params, wire simnet.LinkConfig) *pair {
	t.Helper()
	s := sim.New(seed)
	m := hw.New(s, hw.Opteron6376x4())
	sp, err := m.NewPartition("server", 0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := m.NewPartition("client", 4, 5, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	sk, err := kernel.Boot(sp, kernel.Config{Name: "server", Params: kp})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := kernel.Boot(cp, kernel.Config{Name: "client", Params: kp})
	if err != nil {
		t.Fatal(err)
	}
	snic := simnet.NewNIC("server", nil)
	cnic := simnet.NewNIC("client", nil)
	link, err := simnet.Connect(s, cnic, snic, wire)
	if err != nil {
		t.Fatal(err)
	}
	ss := New(sk, "server", params)
	cs := New(ck, "client", params)
	ss.Attach(snic)
	cs.Attach(cnic)
	return &pair{
		sim: s, serverK: sk, clientK: ck,
		server: ss, client: cs,
		serverNIC: snic, clientNIC: cnic, link: link,
	}
}

func TestHandshakeAndEcho(t *testing.T) {
	p := newPair(t, 1, DefaultParams())
	l, err := p.server.Listen(80, 16)
	if err != nil {
		t.Fatal(err)
	}
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		c := l.Accept(tk)
		data, err := c.Recv(tk, 1024)
		if err != nil {
			t.Errorf("server Recv: %v", err)
			return
		}
		if _, err := c.Send(tk, append([]byte("echo:"), data...)); err != nil {
			t.Errorf("server Send: %v", err)
		}
		_ = c.Close(tk)
	})
	var got []byte
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		if !c.Established() {
			t.Error("client conn not established after Connect")
		}
		if _, err := c.Send(tk, []byte("hello")); err != nil {
			t.Errorf("client Send: %v", err)
		}
		for {
			data, err := c.Recv(tk, 1024)
			if errors.Is(err, EOF) {
				break
			}
			if err != nil {
				t.Errorf("client Recv: %v", err)
				return
			}
			got = append(got, data...)
		}
		_ = c.Close(tk)
	})
	if err := p.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo:hello" {
		t.Errorf("got %q, want %q", got, "echo:hello")
	}
	// Both stacks eventually reap all connections (TIME_WAIT included).
	if p.server.Conns() != 0 || p.client.Conns() != 0 {
		t.Errorf("leaked conns: server=%d client=%d", p.server.Conns(), p.client.Conns())
	}
}

// TestRecvAfterFINIsIOEOF: once the peer's FIN has been consumed, Recv
// reports the end of the stream as io.EOF itself, so callers outside this
// package can test for it without knowing tcpstack.
func TestRecvAfterFINIsIOEOF(t *testing.T) {
	p := newPair(t, 1, DefaultParams())
	l, err := p.server.Listen(80, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		c := l.Accept(tk)
		_, _ = c.Send(tk, []byte("bye"))
		_ = c.Close(tk)
	})
	var got []byte
	var recvErr error
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
		if err != nil {
			recvErr = err
			return
		}
		for recvErr == nil {
			var data []byte
			data, recvErr = c.Recv(tk, 1024)
			got = append(got, data...)
		}
		_ = c.Close(tk)
	})
	if err := p.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "bye" || !errors.Is(recvErr, io.EOF) {
		t.Errorf("read %q, then %v; want \"bye\", then io.EOF", got, recvErr)
	}
}

// TestRecvOfNothing: Recv with max ≤ 0 is recv(2) of length 0. It returns
// (nil, nil) at once — after the syscall charge, without waiting for data
// and without a segment's CPU — and consumes nothing, whether or not bytes
// are buffered. A negative max used to panic in makeslice and a zero one to
// wait for data, then return none.
func TestRecvOfNothing(t *testing.T) {
	p := newPair(t, 1, DefaultParams())
	l, err := p.server.Listen(80, 1)
	if err != nil {
		t.Fatal(err)
	}
	syscall := kernel.DefaultParams().SyscallCost
	var got []byte
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		c := l.Accept(tk)
		nothing := func(when string) {
			for _, max := range []int{0, -1} {
				start := tk.Now()
				if data, err := c.Recv(tk, max); data != nil || err != nil || tk.Now().Sub(start) != syscall {
					t.Errorf("%s: Recv(%d) = %q, %v after %v; want nothing after the %v syscall", when, max, data, err, tk.Now().Sub(start), syscall)
				}
			}
		}
		nothing("nothing buffered")
		for c.BufferedIn() == 0 {
			tk.Sleep(time.Millisecond)
		}
		nothing("bytes buffered")
		got, _ = c.Recv(tk, 64)
		got = append([]byte(nil), got...)
	})
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		if c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80}); err == nil {
			tk.Sleep(5 * time.Millisecond)
			_, _ = c.Send(tk, []byte("kept"))
		}
	})
	if err := p.sim.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if string(got) != "kept" {
		t.Errorf("the read after the empty ones got %q, want every byte sent", got)
	}
}

func genPayload(n int, seed byte) []byte {
	data := make([]byte, n)
	x := seed
	for i := range data {
		x = x*167 + 13
		data[i] = x
	}
	return data
}

func TestBulkTransferIntegrity(t *testing.T) {
	p := newPair(t, 2, DefaultParams())
	payload := genPayload(1<<20, 7) // 1 MiB
	l, err := p.server.Listen(80, 4)
	if err != nil {
		t.Fatal(err)
	}
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		c := l.Accept(tk)
		if _, err := c.Send(tk, payload); err != nil {
			t.Errorf("Send: %v", err)
		}
		_ = c.Close(tk)
	})
	var got []byte
	var doneAt sim.Time
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		for {
			data, err := c.Recv(tk, 64<<10)
			if errors.Is(err, EOF) {
				break
			}
			if err != nil {
				t.Errorf("Recv: %v", err)
				return
			}
			got = append(got, data...)
		}
		doneAt = tk.Now()
		_ = c.Close(tk)
	})
	if err := p.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", len(got), len(payload))
	}
	// 1 MiB at 1 Gb/s is ~8.4 ms of wire time; allow generous protocol
	// overhead but catch gross throughput bugs (e.g. stop-and-wait).
	if doneAt > sim.Time(100*time.Millisecond) {
		t.Errorf("1 MiB transfer took %v — window/pipelining broken", doneAt)
	}
}

func TestConnectRefusedByRST(t *testing.T) {
	p := newPair(t, 3, DefaultParams())
	var err error
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		_, err = p.client.Connect(tk, Addr{Host: "server", Port: 9999})
	})
	if e := p.sim.Run(); e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err, ErrReset) {
		t.Errorf("Connect to closed port: err = %v, want ErrReset", err)
	}
}

func TestConnectTimeout(t *testing.T) {
	p := newPair(t, 4, DefaultParams())
	p.serverNIC.SetRx(func(simnet.Packet) {}) // black-hole the server
	var err error
	var gaveUpAt sim.Time
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		_, err = p.client.Connect(tk, Addr{Host: "server", Port: 80})
		gaveUpAt = tk.Now()
	})
	if e := p.sim.Run(); e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
	if gaveUpAt < sim.Time(time.Second) {
		t.Errorf("gave up after %v — SYN retries not exercised", gaveUpAt)
	}
}

func TestRetransmissionUnderLoss(t *testing.T) {
	p := newPair(t, 5, DefaultParams())
	// Drop 10% of segments arriving at the client, deterministically.
	rng := p.sim.Root().Rand()
	p.client.SetIngress(func(seg *Segment) bool { return rng.IntN(10) != 0 })
	payload := genPayload(256<<10, 3)
	l, _ := p.server.Listen(80, 4)
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		c := l.Accept(tk)
		_, _ = c.Send(tk, payload)
		_ = c.Close(tk)
	})
	var got []byte
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		for {
			data, err := c.Recv(tk, 32<<10)
			if errors.Is(err, EOF) {
				break
			}
			if err != nil {
				t.Errorf("Recv: %v", err)
				return
			}
			got = append(got, data...)
		}
		_ = c.Close(tk)
	})
	if err := p.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("stream corrupted under loss: got %d bytes, want %d", len(got), len(payload))
	}
}

func TestZeroWindowStallAndResume(t *testing.T) {
	params := DefaultParams()
	params.RecvBuf = 8 << 10 // tiny receive buffer: reader controls the flow
	p := newPair(t, 6, params)
	payload := genPayload(128<<10, 9)
	l, _ := p.server.Listen(80, 4)
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		c := l.Accept(tk)
		_, _ = c.Send(tk, payload)
		_ = c.Close(tk)
	})
	var got []byte
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		for {
			tk.Sleep(time.Millisecond) // slow reader forces zero windows
			data, err := c.Recv(tk, 4<<10)
			if errors.Is(err, EOF) {
				break
			}
			if err != nil {
				t.Errorf("Recv: %v", err)
				return
			}
			got = append(got, data...)
		}
		_ = c.Close(tk)
	})
	if err := p.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", len(got), len(payload))
	}
}

// TestRestoreMidTransfer exercises the failover promotion path at stack
// level: mid-transfer, the server stack is torn away and a fresh stack on a
// new kernel restores the connection from a snapshot. The client must
// receive the byte stream intact, on the same connection.
func TestRestoreMidTransfer(t *testing.T) {
	p := newPair(t, 8, DefaultParams())
	payload := genPayload(512<<10, 5)
	half := len(payload) / 2
	l, _ := p.server.Listen(80, 4)

	// A second kernel ("secondary") shares the server NIC after failover.
	// Reuse the client partition's machine: boot on spare nodes.
	var snap ConnSnapshot
	var snapped bool
	var served *Conn
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		c := l.Accept(tk)
		served = c
		if _, err := c.Send(tk, payload[:half]); err != nil {
			return
		}
		// Snapshot with the tail of the first half still unacknowledged,
		// and "die": the restored stack has to retransmit it.
		if c.BufferedOut() == 0 {
			t.Error("nothing unacknowledged at the snapshot: the restore would not be mid-transfer")
		}
		snap = c.Snapshot()
		snapped = true
	})

	var got []byte
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		for len(got) < len(payload) {
			data, err := c.Recv(tk, 64<<10)
			if err != nil {
				t.Errorf("Recv: %v", err)
				return
			}
			got = append(got, data...)
		}
	})

	// After the snapshot is taken, kill the primary, restore on a new
	// stack bound to the same NIC, and send the second half.
	check := p.sim.Spawn("failover-driver", func(pr *sim.Proc) {
		for !snapped {
			pr.Sleep(time.Millisecond)
		}
		p.serverK.Panic("injected failure", nil)
		p.server.nic = nil // dead with its kernel: nothing it still
		served.Abort()     // holds reaches the wire, no timer stays armed
		newStack := New(p.clientK, "server", DefaultParams())
		newStack.Attach(p.serverNIC)
		c2, err := newStack.Restore(snap)
		if err != nil {
			t.Errorf("Restore: %v", err)
			return
		}
		// Restore copied: the snapshot outlives the connection's windows
		// and scribbling on it must not reach the stream.
		for i := range snap.SndData {
			snap.SndData[i] = 0xee
		}
		c2.Kick()
		p.clientK.Spawn("server2", func(tk *kernel.Task) {
			if _, err := c2.Send(tk, payload[half:]); err != nil {
				t.Errorf("post-restore Send: %v", err)
			}
		})
	})
	_ = check
	if err := p.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("stream corrupted across restore: got %d bytes, want %d", len(got), len(payload))
	}
}

func TestListenerBacklog(t *testing.T) {
	p := newPair(t, 9, DefaultParams())
	l, err := p.server.Listen(80, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.server.Listen(80, 1); !errors.Is(err, ErrPortInUse) {
		t.Errorf("double Listen err = %v, want ErrPortInUse", err)
	}
	connected := 0
	for i := 0; i < 3; i++ {
		p.clientK.Spawn("client", func(tk *kernel.Task) {
			c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
			if err == nil {
				connected++
				_ = c.Close(tk)
			}
		})
	}
	p.serverK.Spawn("acceptor", func(tk *kernel.Task) {
		for i := 0; i < 3; i++ {
			c := l.Accept(tk)
			_ = c.Close(tk)
		}
	})
	if err := p.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if connected != 3 {
		t.Errorf("connected = %d, want 3 (SYN retry should beat backlog limit)", connected)
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	p := newPair(t, 10, DefaultParams())
	l, _ := p.server.Listen(80, 4)
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		c := l.Accept(tk)
		_, _ = c.Recv(tk, 10)
	})
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		_, _ = c.Send(tk, []byte("x"))
		_ = c.Close(tk)
		if _, err := c.Send(tk, []byte("y")); !errors.Is(err, ErrClosed) {
			t.Errorf("Send after Close err = %v, want ErrClosed", err)
		}
	})
	if err := p.sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicSegments(t *testing.T) {
	run := func() (int64, int64) {
		p := newPair(t, 42, DefaultParams())
		payload := genPayload(64<<10, 1)
		l, _ := p.server.Listen(80, 4)
		p.serverK.Spawn("server", func(tk *kernel.Task) {
			c := l.Accept(tk)
			_, _ = c.Send(tk, payload)
			_ = c.Close(tk)
		})
		p.clientK.Spawn("client", func(tk *kernel.Task) {
			c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
			if err != nil {
				return
			}
			for {
				if _, err := c.Recv(tk, 32<<10); err != nil {
					break
				}
			}
			_ = c.Close(tk)
		})
		if err := p.sim.Run(); err != nil {
			t.Fatal(err)
		}
		return p.server.SegsIn, p.server.SegsOut
	}
	in1, out1 := run()
	in2, out2 := run()
	if in1 != in2 || out1 != out2 {
		t.Errorf("nondeterministic segment counts: %d/%d vs %d/%d", in1, out1, in2, out2)
	}
}

// TestEphemeralPortsExhausted narrows the client's ephemeral range to four
// ports, one of them taken by a listener. Connect hands out the other three
// in the old scan order, fails with ErrPortsExhausted instead of spinning
// while all are in use — a connection in TIME_WAIT still holds its port —
// and succeeds again once one has been reaped.
func TestEphemeralPortsExhausted(t *testing.T) {
	p := newPair(t, 5, DefaultParams())
	p.client.portLo, p.client.portHi, p.client.nextPort = 40000, 40003, 40000
	if _, err := p.client.Listen(40002, 1); err != nil {
		t.Fatal(err)
	}
	l, err := p.server.Listen(80, 16)
	if err != nil {
		t.Fatal(err)
	}
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		for {
			c := l.Accept(tk)
			p.serverK.Spawn("conn", func(tk *kernel.Task) {
				for {
					if _, err := c.Recv(tk, 1); err != nil {
						_ = c.Close(tk)
						return
					}
				}
			})
		}
	})
	var ports []int
	var errFull, errTimeWait, errAfter error
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		dst := Addr{Host: "server", Port: 80}
		var conns []*Conn
		for i := 0; i < 3; i++ {
			c, err := p.client.Connect(tk, dst)
			if err != nil {
				t.Errorf("Connect %d: %v", i, err)
				return
			}
			conns = append(conns, c)
			ports = append(ports, c.LocalAddr().Port)
		}
		_, errFull = p.client.Connect(tk, dst)
		_ = conns[1].Close(tk)
		tk.Sleep(p.client.params.TimeWait / 2)
		_, errTimeWait = p.client.Connect(tk, dst)
		tk.Sleep(p.client.params.TimeWait)
		c, err := p.client.Connect(tk, dst)
		if errAfter = err; err == nil {
			ports = append(ports, c.LocalAddr().Port)
		}
	})
	if err := p.sim.RunUntil(sim.Time(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errFull, ErrPortsExhausted) || !errors.Is(errTimeWait, ErrPortsExhausted) {
		t.Errorf("Connect with every port in use: %v; with one in TIME_WAIT: %v; want ErrPortsExhausted twice", errFull, errTimeWait)
	}
	if errAfter != nil {
		t.Errorf("Connect after the TIME_WAIT connection was reaped: %v", errAfter)
	}
	if want := []int{40001, 40003, 40000, 40003}; !equalInts(ports, want) {
		t.Errorf("ports handed out %v, want %v", ports, want)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSendAndRecvParkOnce: a Recv of buffered data pays the syscall with its
// copy's CPU cost, and a Send that fits the window pays it with its
// segments', each in one stretch: each parks its task once. A ticker process
// runs between any two parks, so each park shows as one switch back into
// the task; two stretches would show as two.
func TestSendAndRecvParkOnce(t *testing.T) {
	p := newPair(t, 1, DefaultParams())
	l, err := p.server.Listen(80, 1)
	if err != nil {
		t.Fatal(err)
	}
	task, switches, done := "", 0, false
	p.sim.OnSwitch = func(_ sim.Time, name string) {
		if name == task {
			switches++
		}
	}
	p.sim.Spawn("ticker", func(pr *sim.Proc) {
		for !done {
			pr.Sleep(100 * time.Nanosecond)
		}
	})
	var recvParks, sendParks int
	p.serverK.Spawn("server", func(tk *kernel.Task) {
		c := l.Accept(tk)
		for c.BufferedIn() == 0 {
			tk.Sleep(10 * time.Microsecond)
		}
		task = tk.Proc().Name()
		if data, err := c.Recv(tk, 100); err != nil || string(data) != "hello" {
			t.Errorf("Recv = %q, %v", data, err)
		}
		recvParks = switches
		if n, err := c.Send(tk, []byte("world")); n != 5 || err != nil {
			t.Errorf("Send = %d, %v", n, err)
		}
		sendParks, task, done = switches-recvParks, "", true
	})
	p.clientK.Spawn("client", func(tk *kernel.Task) {
		c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = c.Send(tk, []byte("hello"))
		_, _ = c.Recv(tk, 100)
	})
	if err := p.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if recvParks != 1 || sendParks != 1 {
		t.Errorf("Recv of buffered data parked %d times, Send within the window %d; want 1 each", recvParks, sendParks)
	}
}

// TestParkedRecvResumesOnce: a Recv that waits for input has its wake-up
// do the read — or take the EOF — and resumes its task once, when the
// syscall's and the copy's CPU time have passed since the input arrived,
// as a resume followed by a Busy would; with a ticker process running
// between any two parks, a resume and a Busy would show as two switches,
// and each of two Recvs in a row parks this way. A
// reader killed in the instant its input arrives, after its wake-up is
// armed, reads nothing: the bytes wait for the next Recv.
func TestParkedRecvResumesOnce(t *testing.T) {
	params := DefaultParams()
	kp := kernel.DefaultParams()
	for _, tc := range []struct {
		name      string
		reads     int
		kill      bool
		close     bool
		want      string
		wantErr   error
		wantAfter time.Duration // from the input's arrival to Recv's return
	}{
		{name: "data", reads: 2, want: "hello", wantAfter: kp.SyscallCost + params.SegmentCPU},
		{name: "EOF", reads: 1, close: true, wantErr: io.EOF, wantAfter: kp.SyscallCost},
		{name: "killed", reads: 1, kill: true, want: "hello"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, 1, params)
			l, err := p.server.Listen(80, 1)
			if err != nil {
				t.Fatal(err)
			}
			reader, switches, done := "", 0, false
			var arrived sim.Time
			var rt *kernel.Task
			p.server.OnDataIn = func(*Conn, []byte) {
				arrived = p.sim.Now()
				if tc.kill {
					p.sim.Schedule(0, func() { rt.Kill(); done = true }) // queued ahead of the reader's wake-up
				}
			}
			p.server.OnPeerFin = func(*Conn) { arrived = p.sim.Now() }
			p.sim.OnSwitch = func(_ sim.Time, name string) {
				if name == reader {
					switches++
				}
			}
			p.sim.Spawn("ticker", func(pr *sim.Proc) {
				for !done {
					pr.Sleep(100 * time.Nanosecond)
				}
			})
			var conn *Conn
			var got []byte
			var gotErr error
			var returned sim.Time
			rt = p.serverK.Spawn("server", func(tk *kernel.Task) {
				conn = l.Accept(tk)
				reader = tk.Proc().Name()
				for range tc.reads {
					got, gotErr = conn.Recv(tk, 100)
				}
				returned, reader, done = p.sim.Now(), "", true
			})
			p.clientK.Spawn("client", func(tk *kernel.Task) {
				c, err := p.client.Connect(tk, Addr{Host: "server", Port: 80})
				if err != nil {
					t.Error(err)
					return
				}
				for range tc.reads {
					tk.Sleep(time.Millisecond)
					if tc.close {
						_ = c.Close(tk)
					} else {
						_, _ = c.Send(tk, []byte("hello"))
					}
				}
			})
			if err := p.sim.Run(); err != nil {
				t.Fatal(err)
			}
			if tc.kill {
				if returned != 0 || conn.BufferedIn() != len(tc.want) {
					t.Fatalf("killed reader returned at %v; %d bytes buffered, want %d", returned, conn.BufferedIn(), len(tc.want))
				}
				p.serverK.Spawn("next", func(tk *kernel.Task) { got, gotErr = conn.Recv(tk, 100) })
				if err := p.sim.Run(); err != nil {
					t.Fatal(err)
				}
			} else if after := returned.Sub(arrived); after != tc.wantAfter || switches != tc.reads {
				t.Errorf("Recv returned %v after its input arrived, %d Recvs switched in %d times; want %v, once each", after, tc.reads, switches, tc.wantAfter)
			}
			if string(got) != tc.want || gotErr != tc.wantErr {
				t.Errorf("Recv = %q, %v; want %q, %v", got, gotErr, tc.want, tc.wantErr)
			}
		})
	}
}

package core_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/restream"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rejoin"
	"repro/internal/replication"
	"repro/internal/tcprep"
)

// strayOnRestore is the restream server with its first Restore planted
// wrong: that instance, restored on a checkpoint-seeded backup, spawns a
// thread the recording side never spawned, so its next ft_pid runs one
// ahead of the checkpoint cursors it must reproduce.
type strayOnRestore struct {
	*restream.Server
	restores *int
	stray    bool
	kern     **kernel.Kernel // the planted instance's kernel
}

func (s *strayOnRestore) Restore(data []byte) {
	s.Server.Restore(data)
	*s.restores++
	s.stray = *s.restores == 1
}

func (s *strayOnRestore) Main(th *replication.Thread, socks *tcprep.Sockets) {
	if s.stray {
		*s.kern = th.Task().Kernel()
		th.NS().SpawnThread(th, "stray", func(*replication.Thread) {})
	}
	s.Server.Main(th, socks)
}

// TestAbortedRejoinDegradesAndRetries runs the path a rejoin takes when its
// backup's replay fails the frontier check (System.abortRejoin): the first
// checkpoint-seeded backup restores its app wrong, and when its replay head
// reaches the attach frontier VerifyReplay reports the typed mismatch. The
// backup's kernel must die, the deployment degrade with an "aborted"
// ResyncDone note, the client's stream stay byte-identical to the pattern,
// and the next rejoin — restored right — bring it back to replicated. The
// catch-up stream drains before the replay reaches the frontier, but a
// rejoin is replicated only once both have happened: the aborted generation
// goes from resyncing to degraded, and its one ResyncDone note is
// "aborted".
func TestAbortedRejoinDegradesAndRetries(t *testing.T) {
	t.Parallel()
	const total = 32 << 20
	restores := 0
	var planted *kernel.Kernel
	sys, err := core.New(core.WithSeed(3), oracle.Restream.Config, withMSS(16<<10), withChaos("kill backup @1s"),
		core.WithEpochCheckpoints(100*time.Millisecond, 0), core.WithRejoinDelay(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(core.App{Name: "stream", State: func() core.AppState {
		srv := restream.New(restream.Config{Port: 80, Chunk: 64 << 10, Total: total})
		return &strayOnRestore{Server: srv, restores: &restores, kern: &planted}
	}})
	out, err := oracle.StreamClient(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	seen, _ := out()
	if err := checkStream(sys, seen, total); err != nil {
		t.Fatal(err)
	}

	if err := sys.RejoinErr(); !errors.Is(err, rejoin.ErrChecksumMismatch) || !strings.Contains(err.Error(), "ft_pid") {
		t.Errorf("rejoin error %v, want the frontier's ft_pid mismatch", err)
	}
	if planted == nil || planted.Alive() {
		t.Errorf("the backup that restored wrong is not dead (kernel %v)", planted)
	}
	want := []core.LifecycleState{core.StateReplicated, core.StateDegraded, core.StateResyncing,
		core.StateDegraded, core.StateResyncing, core.StateReplicated}
	if states := lifecycleStates(sys); !reflect.DeepEqual(states, want) {
		t.Errorf("lifecycle states = %v, want %v", states, want)
	}
	var notes []string
	for _, ev := range sys.Obs.FlightDump().Events {
		if ev.Kind == obs.ResyncDone {
			notes = append(notes, ev.Note)
		}
	}
	if len(notes) != 2 || !strings.HasPrefix(notes[0], "aborted: ") || notes[1] != "g2 replicated" {
		t.Errorf("ResyncDone notes %q, want the first rejoin aborted and the second replicated", notes)
	}
	if g := sys.Generation(); g != 2 || restores != 2 {
		t.Errorf("generation %d after %d restores, want the second rejoin to be the last", g, restores)
	}
}

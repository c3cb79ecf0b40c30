package oracle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/sim"
)

// Scenario is one run, whole: the app, the deployment's shape, the
// simulation seed and a chaos schedule. ftsim runs one from a file, ftfuzz
// draws and saves them, and the kill sweeps build them; Deploy is where one
// becomes a core.System. Seed and Index are a drawn scenario's provenance —
// ftfuzz's campaign seed and draw index — and play no part in the run.
type Scenario struct {
	Seed    int64 `json:",omitempty"`
	Index   int   `json:",omitempty"`
	SimSeed int64
	App     string
	// Size is the download app's file size in bytes.
	Size                              int64 `json:",omitempty"`
	Workers, Shards, Replicas, Quorum int   // Quorum 0: a majority of the set
	Strict, Epochs                    bool
	Ports                             int // client ephemeral ports; 0 is the stack's default range
	// Chaos is a chaos schedule spec, or a preset's name (chaos.Parse).
	Chaos string
	// Then is what follows the first kill: "", "rejoin" (a manual Rejoin
	// in place of the delayed one) or "retire" (a backup, once the set is
	// whole again).
	Then string `json:",omitempty"`
}

// ParseScenario reads a scenario from its JSON. A field the JSON leaves out
// keeps its default: simulation seed 1, one worker and one det shard, two
// replicas at a majority quorum, strict output commit, no epochs, the
// default port range and no chaos.
func ParseScenario(b []byte) (Scenario, error) {
	sc := Scenario{SimSeed: 1, Workers: 1, Shards: 1, Replicas: 2, Strict: true}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	return sc, nil
}

// JSON is the scenario as ParseScenario reads it, indented, one field a line.
func (sc Scenario) JSON() []byte {
	b, _ := json.MarshalIndent(sc, "", "  ")
	return append(b, '\n')
}

// Deploy builds the scenario's deployment — the app's own settings, then
// the scenario's shape and schedule, then opts — launches its app and
// client, and arms what follows the kill. run runs it to its end (Sim.Run
// for a server, Wait otherwise: a hang is a *core.HangError) and returns
// what the client saw. An unknown app, a malformed schedule or a shape core
// rejects is an error naming the field.
func Deploy(sc Scenario, opts ...core.Option) (sys *core.System, run func() (string, error), err error) {
	app, ok := Apps[sc.App]
	if !ok {
		return nil, nil, fmt.Errorf("scenario: App %q is none of %s", sc.App, strings.Join(slices.Sorted(maps.Keys(Apps)), ", "))
	}
	sched, err := chaos.Parse(sc.Chaos)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: Chaos: %w", err)
	}
	shape := []core.Option{core.WithSeed(sc.SimSeed), app.Config, core.WithReplicaSet(sc.Replicas), core.WithDetShards(sc.Shards),
		func(c *core.Config) {
			c.Quorum, c.Replication.StrictOutputCommit, c.Chaos = sc.Quorum, sc.Strict, sched
		}}
	if sc.Epochs {
		shape = append(shape, core.WithEpochCheckpoints(100*time.Millisecond, 0))
	}
	if sys, err = core.New(append(shape, opts...)...); err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	out, err := app.Start(sys, sc)
	if err != nil {
		sys.Sim.Shutdown()
		return nil, nil, err
	}
	if sc.Then != "" && len(sched.Kills) > 0 {
		after(sc.Then, sys)
	}
	end := sys.Wait
	if app.Serves {
		end = sys.Sim.Run
	}
	return sys, func() (string, error) {
		if err := end(); err != nil {
			return "", err
		}
		return out()
	}, nil
}

// after arms what follows the first kill, polling every 20 ms of virtual
// time as background work (it keeps no run going): a manual Rejoin as soon
// as the set is degraded — before the delayed one, which then finds the
// slot filled — or the retirement of a backup once the set is whole again.
func after(then string, sys *core.System) {
	var ev sim.Event
	ev.Init(sys.Sim.Root(), func() {
		if inj := sys.Injector(); inj != nil && inj.Kills > 0 {
			switch st := sys.State(); {
			case then == "rejoin" && st == core.StateDegraded:
				if sys.Rejoin() == nil {
					return
				}
			case then == "retire" && st == core.StateReplicated && len(sys.Backups()) > 0:
				if sys.Retire(sys.Backups()[0]) == nil {
					return
				}
			}
		}
		ev.Reset(20 * time.Millisecond)
	})
	ev.SetBackground(true)
	ev.Reset(20 * time.Millisecond)
}

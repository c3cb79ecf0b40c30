package replication

import "repro/internal/obs"

// Controller tuning. The transfer function (DESIGN.md §14): the effective
// batch size grows additively — +1 after every ctrlGrowAfter consecutive
// healthy observations — and shrinks multiplicatively — halved on every
// unhealthy one. Healthy means an output-commit waiter found its watermark
// already acknowledged (commit wait idle) or a flush saw the unacked-log
// lag below the threshold; unhealthy means a commit stalled or the lag
// climbed past it. AIMD converges onto the largest batch the backup's
// drain rate sustains without stretching the output-commit path, and backs
// off within one commit of the workload turning latency-sensitive.
const (
	// ctrlGrowAfter is how many consecutive healthy observations earn one
	// additive step. Growth is deliberately slower than decay: a batch
	// that is too large stalls real output, a batch that is too small only
	// costs header amortization.
	ctrlGrowAfter = 4

	// ctrlLagFactor sets the lag threshold in units of the current batch:
	// a flush finding more than ctrlLagFactor*eff + ctrlLagSlack unacked
	// tuples means the backup is falling behind and buffering more would
	// only widen the loss window.
	ctrlLagFactor = 8
	ctrlLagSlack  = 32
)

// batchController is the recorder's one batch policy: it owns the effective
// batch size and steers it by AIMD between min and max. It observes the two
// signals the recorder already measures — output-commit stalls
// (ftns.commit.wait) and unacked-log lag at flush (ftns.flush.lag, the
// primary-side view of replay.lag). With Config.MaxBatchTuples above
// BatchTuples the range is 1..MaxBatchTuples, starting at BatchTuples.
// Otherwise min = max = BatchTuples and the controller is pinned — it can
// neither grow nor shrink, so its output is the constant BatchTuples: the
// static policy is this controller with an empty range, not a second code
// path. All state changes happen inside recorder calls on the virtual
// clock, so runs are deterministic and the controller adds no events of
// its own.
type batchController struct {
	eff    int // current effective batch size
	min    int
	max    int
	streak int // consecutive healthy observations since the last step

	cGrow   *obs.Counter
	cShrink *obs.Counter
}

// newBatchController takes a normalized Config (MaxBatchTuples >=
// BatchTuples >= 1).
func newBatchController(cfg Config) batchController {
	c := batchController{eff: cfg.BatchTuples, min: cfg.BatchTuples, max: cfg.MaxBatchTuples}
	if c.max > c.eff {
		c.min = 1
	}
	return c
}

// instrument registers the controller signals under the namespace prefix:
// the effective batch size as a sampled gauge plus the step counters. A
// pinned controller registers nothing — its three signals are constants.
func (c *batchController) instrument(name string, reg *obs.Registry) {
	if c.max == c.min {
		return
	}
	reg.Gauge(name+".ctrl.batch", func() int64 { return int64(c.eff) })
	c.cGrow = reg.Counter(name + ".ctrl.grow")
	c.cShrink = reg.Counter(name + ".ctrl.shrink")
}

// observeCommit feeds one output-commit observation: stalled means the
// waiter's watermark was not yet acknowledged and output is now held.
func (c *batchController) observeCommit(stalled bool) {
	if stalled {
		c.shrink()
		return
	}
	c.healthy()
}

// observeFlush feeds one flush observation: lag is the unacked-log depth
// (sent minus the lowest live-backup watermark) at the flush instant.
func (c *batchController) observeFlush(lag uint64) {
	if lag > uint64(ctrlLagFactor*c.eff+ctrlLagSlack) {
		c.shrink()
		return
	}
	c.healthy()
}

func (c *batchController) healthy() {
	c.streak++
	if c.streak < ctrlGrowAfter || c.eff >= c.max {
		return
	}
	c.streak = 0
	c.eff++
	c.cGrow.Inc()
}

func (c *batchController) shrink() {
	c.streak = 0
	if c.eff <= c.min {
		return
	}
	c.eff /= 2
	if c.eff < c.min {
		c.eff = c.min
	}
	c.cShrink.Inc()
}

// Package interfix is the golden fixture for nondet's interprocedural
// layer: nondeterminism that enters replicated code through helpers in
// repro/internal/timeutil (a non-replicated package, where the sources
// themselves are legal). The old syntactic checks see none of these —
// every violation is at least one call away from its source.
package interfix

import (
	"sort"

	"repro/internal/timeutil"
)

type rec struct {
	out []string
	log []int64
}

// push is an ordered sink by name: it serializes its argument into
// replicated output.
func (r *rec) push(s string) { r.out = append(r.out, s) }

// stampBad observes a wall-clock value two hops from time.Now.
func (r *rec) stampBad() {
	r.log = append(r.log, timeutil.Stamp()) // want "call to Stamp carries a wall-clock value"
}

// pidBad observes the raw process id through a helper.
func (r *rec) pidBad() int {
	return timeutil.ID() // want "call to ID carries the raw process id"
}

// randBad observes a package-level rand draw through a helper.
func (r *rec) randBad() int64 {
	return timeutil.Jitter() // want "call to Jitter carries a package-level math/rand draw"
}

// seededGood draws from a seeded stream a helper built: a rand.New*
// returned through a helper is not reported (nondetfix.seeded is).
func (r *rec) seededGood() int { return timeutil.Seeded(1).Intn(6) }

// keysBad sends a helper's map-iteration-ordered value into a channel:
// the range is in timeutil.Keys, the escape is here.
func (r *rec) keysBad(m map[string]int, ch chan string) {
	ks := timeutil.Keys(m)
	ch <- ks[0] // want "map iteration order from a helper"
}

// sinkBad hands the unordered keys to an ordered sink call.
func (r *rec) sinkBad(m map[string]int) {
	ks := timeutil.Keys(m)
	r.push(ks[0]) // want "map iteration order from a helper"
}

// sortedGood uses the helper that sorts before returning: no taint.
func (r *rec) sortedGood(m map[string]int, ch chan string) {
	ks := timeutil.SortedKeys(m)
	ch <- ks[0]
}

// clock is the dispatch indirection: tickGood only sees the interface, so
// its edge to counter.now exists through type-set-bounded resolution
// alone. The implementation reads no source, so nothing is reported.
type clock interface{ now() int64 }

type counter struct{ n int64 }

func (c *counter) now() int64 { c.n++; return c.n }

func (r *rec) tickGood(c clock) { r.log = append(r.log, c.now()) }

// sortHereGood re-sorts the tainted slice locally before emitting: the
// collect-then-sort idiom discharges the map-order taint at the caller.
func (r *rec) sortHereGood(m map[string]int, ch chan string) {
	ks := timeutil.Keys(m)
	sort.Strings(ks)
	ch <- ks[0]
}

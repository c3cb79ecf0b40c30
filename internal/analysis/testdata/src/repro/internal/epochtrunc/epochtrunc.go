// Package epochtrunc exercises the retained-log truncation rule: a
// prefix drop of a retained history (`x.history.DropFront(keep)` on a
// chunked log, `x.history = x.history[keep:]` on a slice) must sit
// behind a guard naming the verified epoch boundary, or the replica may
// discard catch-up state a promotion or rejoin still needs
// (DESIGN.md §18).
package epochtrunc

// chunked stands in for sim.Log.
type chunked struct{ n int }

func (l *chunked) DropFront(n int) { l.n -= n }
func (l *chunked) Len() int        { return l.n }

type logRec struct {
	history  chunked
	backlog  chunked
	histBase int
}

// goodDrop is the recorder/replayer idiom over a chunked log. Sanctioned.
func goodDrop(r *logRec, verifiedSent int) {
	if verifiedSent < r.histBase {
		return
	}
	keep := verifiedSent - r.histBase
	r.history.DropFront(keep)
	r.histBase = verifiedSent
}

// badDrop truncates the chunked log with no verified-boundary guard.
func badDrop(r *logRec, keep int) {
	r.histBase += keep
	r.history.DropFront(keep) // want "verified-boundary guard"
}

// otherDrop pops something that is not a retained history.
func otherDrop(r *logRec, n int) {
	r.backlog.DropFront(n)
	_ = r.history.Len()
}

type rec struct {
	history  []int
	histBase int
}

// goodTruncate mirrors the recorder/replayer idiom: clamp to the
// verified watermark before dropping the prefix. Sanctioned.
func goodTruncate(r *rec, verifiedSent int) {
	if verifiedSent < r.histBase {
		return
	}
	keep := verifiedSent - r.histBase
	r.histBase = verifiedSent
	r.history = r.history[keep:]
}

// badTruncate drops a history prefix with no verified-boundary guard
// anywhere in sight: an unverified epoch's tuples vanish.
func badTruncate(r *rec, keep int) {
	r.histBase += keep
	r.history = r.history[keep:] // want "verified-boundary guard"
}

// tailTrim has no low bound: it discards the tail, not the retained
// prefix, so it is not a truncation site.
func tailTrim(r *rec, n int) {
	r.history = r.history[:n]
}

// reset replaces the slice wholesale rather than reslicing it; also not
// a prefix drop.
func reset(r *rec) {
	r.history = nil
	r.history = append(r.history, 1)
}

// localTruncate shows the rule also covers bare local variables named
// for the retained history, with the same sanction shape.
func localTruncate(history []int, verified, base int) []int {
	if verified < base {
		return history
	}
	history = history[verified-base:]
	return history
}

// badLocalTruncate is the unguarded local-variable form.
func badLocalTruncate(history []int, keep int) []int {
	history = history[keep:] // want "verified-boundary guard"
	return history
}

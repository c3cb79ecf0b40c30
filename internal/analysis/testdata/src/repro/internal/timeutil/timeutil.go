// Package timeutil is a non-replicated helper fixture for the nondet
// interprocedural checks: the sources here are legal (the package is
// outside the replicated set), the violation is a replicated caller
// observing the values. Every taint is at least one call deep, so the
// old syntactic checks cannot see it.
package timeutil

import (
	"math/rand"
	"os"
	"sort"
	"time"
)

// Stamp returns a wall-clock timestamp two hops from time.Now.
func Stamp() int64 { return now() }

func now() int64 { return time.Now().UnixNano() }

// Backoff and backoff recurse into each other and only backoff reads the
// clock: their shared component must converge with the clock taint in
// both summaries.
func Backoff(n int) int64 {
	if n > 0 {
		return backoff(n - 1)
	}
	return 0
}

func backoff(n int) int64 { return time.Now().UnixNano() + Backoff(n) }

// ID returns the raw process id.
func ID() int { return os.Getpid() }

// Jitter draws from the process-seeded package-level rand.
func Jitter() int64 { return rand.Int63() }

// Seeded builds a seeded stream, as sim does: its result carries no taint.
func Seeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Keys returns the keys of m in (randomized) map-iteration order.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// SortedKeys re-establishes a deterministic order before returning: the
// collect-then-sort idiom, so the result carries no map-order taint.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

package main

import (
	"math"
	"slices"
	"time"
)

// tailSamples is how many samples must lie beyond a percentile before it
// is reported: below that the tail is a handful of outliers, not a
// distribution.
const tailSamples = 10

// rankOf is the nearest-rank index (1-based) of the q-th percentile of n
// samples: the smallest rank covering at least q percent of them.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// sample is what percentiles are taken of: durations, or tuple counts.
type sample interface{ ~int64 }

// nearestRank returns the q-th percentile (0 < q <= 100) of an ascending
// sample by the nearest-rank method: always one of the samples, never an
// interpolation. An empty sample yields zero.
func nearestRank[T sample](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), q)-1]
}

// tailSupported reports whether at least tailSamples samples lie beyond
// the q-th percentile of n samples.
func tailSupported(n int, q float64) bool {
	return n > 0 && n-rankOf(n, q) >= tailSamples
}

// sortedCopy returns an ascending copy, leaving the recording order of
// the original intact.
func sortedCopy[T sample](d []T) []T {
	out := slices.Clone(d)
	slices.Sort(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, zero when den is zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

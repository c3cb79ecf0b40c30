// Package notrep is the negative fixture for the nondet analyzer: its
// import path is outside the replicated set (internal/apps/...,
// internal/pthread, internal/tcprep), so raw nondeterminism here is the
// analyzer's business to ignore — benchmarks and tooling legitimately
// read the wall clock.
package notrep

import (
	"math/rand"
	"time"
)

func wallClock() time.Time { return time.Now() }

func jitter() int { return rand.Intn(10) }

func order(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// spawn is tooling's business: outside the replicated set a goroutine is
// not flagged.
func spawn(ch chan int) int {
	go func() { ch <- 1 }()
	return <-ch
}

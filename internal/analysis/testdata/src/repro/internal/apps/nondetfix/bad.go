// Package nondetfix is the positive golden fixture for the nondet
// analyzer. Its import path sits under repro/internal/apps/, so the
// analyzer treats it as replicated application code.
package nondetfix

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/shm"
)

type sink struct{ out []string }

func (s *sink) Send(v string) { s.out = append(s.out, v) }

func clock() int64 {
	now := time.Now() // want "time.Now in replicated code"
	d := time.Since(now) // want "time.Since reads the local clock"
	return int64(d)
}

func pid() int {
	return os.Getpid() // want "os.Getpid is not replicated"
}

func draw() int {
	return rand.Intn(6) // want "package-level math/rand"
}

// seeded: a rand.New* written in replicated code is reported — the code
// takes its stream from its domain — though one a helper returns is not
// (interfix.seededGood).
func seeded() int {
	src := rand.NewSource(1) // want "package-level math/rand"
	return rand.New(src).Intn(6) // want "package-level math/rand"
}

func emit(m map[string]int, s *sink, ch chan string) {
	for k := range m { // want "via append"
		s.out = append(s.out, k)
	}
	for k := range m { // want "via a channel send"
		ch <- k
	}
	var joined string
	for k := range m { // want "via string concatenation"
		joined += k
	}
	_ = joined
	for k, v := range m { // want "via Send"
		s.Send(fmt.Sprint(k, v))
	}
}

func commitTuple(v int) {}

// fabric: the zero-copy span is an ordered sink too — a Put writes its
// argument at the span's reserved ring position, so map order becomes
// the publication order the other replica replays.
func fabric(m map[string]int, sp shm.Span) {
	for k, v := range m { // want "via Put"
		sp.Put(shm.Message{Kind: v, Size: len(k)})
	}
	for _, v := range m { // want "via commitTuple"
		commitTuple(v)
	}
}

// spawn: a goroutine's interleaving is the Go runtime's, not the seed's.
func spawn(ch chan int) int {
	go func() { ch <- 1 }() // want "a go statement in replicated code"
	return <-ch
}

//go:build !race

// The race runtime allocates where the plain build does not, so this pin is
// the plain build's: CI's allocation-pins step runs it.

package rejoin

import (
	"testing"

	"repro/internal/replication"
)

// TestCutterCutAllocatesNothing: once a Cutter's buffers have grown, a cut
// that is sealed and dropped — a pre-copy pass sizing the namespace, a
// backup verifying an epoch marker — allocates nothing.
func TestCutterCutAllocatesNothing(t *testing.T) {
	var c Cutter
	n := -1.0 // until round 20 measures it
	s, _, _, _, _, _ := recordedPair(t, func(pns *replication.Namespace, round int) {
		if round == 20 {
			n = testing.AllocsPerRun(50, func() { c.Cut(pns).Seal() })
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("%v allocations per cut, want 0", n)
	}
}

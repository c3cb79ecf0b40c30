package main

import (
	"math"
	"strings"
	"testing"
)

// TestPairStatistics checks make pair's statistics on fixed samples:
// interpolated quartiles, pairs won with ties counting for neither, the
// Mann–Whitney p-value of fully separated, overlapping and all-tied
// samples, and the verdicts the report draws from them.
func TestPairStatistics(t *testing.T) {
	seq := func(from float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = from + float64((i*7)%10) // 0..9 shuffled
		}
		return xs
	}
	if q1, m, q3 := quartiles(seq(1)); q1 != 3.25 || m != 5.5 || q3 != 7.75 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 3.25 5.5 7.75", q1, m, q3)
	}
	if q1, m, q3 := quartiles([]float64{4}); q1 != 4 || m != 4 || q3 != 4 {
		t.Errorf("quartiles of one sample = %v %v %v, want 4 4 4", q1, m, q3)
	}
	if lo, hi := wins([]float64{1, 2, 3, 4}, []float64{0, 2, 5, 3}); lo != 2 || hi != 1 {
		t.Errorf("wins = %d lower, %d higher; want 2 and 1", lo, hi)
	}
	for _, c := range []struct {
		name string
		a, b []float64
		p    float64
	}{
		{"separated", seq(1), seq(11), 0.000183},             // U = 0: z = 49.5 / sqrt(100·21/12)
		{"overlapping", seq(1), seq(6), 0.005075},            // U = 12.5, five tied pairs: z = 37 / 13.204
		{"identical", seq(1), seq(1), 1},                     // U = 50, the mean
		{"all tied", []float64{3, 3, 3}, []float64{3, 3}, 1}, // no spread at all
	} {
		if p := mannWhitney(c.a, c.b); math.Abs(p-c.p) > 0.00001+c.p*0.01 {
			t.Errorf("%s: Mann–Whitney p = %.6g, want %.3g", c.name, p, c.p)
		}
	}
	var out strings.Builder
	runs := func(xs []float64) []map[string]float64 {
		var rs []map[string]float64
		for _, x := range xs {
			rs = append(rs, map[string]float64{"allocs": x, "bytes": 7})
		}
		return rs
	}
	pairReport(&out, runs(seq(11)), runs(seq(1)))
	for _, want := range []string{"allocs", "15.5 [13.25, 17.75]", "5.5 [3.25, 7.75]", " 10/0 ", "lower", "bytes", "same"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

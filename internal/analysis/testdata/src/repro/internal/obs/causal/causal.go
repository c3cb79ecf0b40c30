// Package causal is a fixture stub mirroring the shape of the real
// repro/internal/obs/causal for analyzer golden tests: the diagnosis
// call surface the nondet analyzer treats as a sanctioned sink whose
// arguments must still be deterministic (they land in golden-pinned
// reports).
package causal

// Divergence mirrors the real first-divergence diagnosis.
type Divergence struct {
	Notes []string
}

// Annotate mirrors the real deterministic key=value annotation.
func Annotate(d *Divergence, key string, v int64) {}

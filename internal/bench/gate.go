package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
)

// Baselines is the checked-in file of pinned ratios
// (goldens/bench-baselines.json): "<experiment>.<ratio>" to the value the
// ratio had when it was last pinned, plus the allowed fractional slip.
// Byte-comparing the regenerated reports against the checked-in ones says
// that a number moved; the floors say which way it may not move — a PR
// that regenerates the reports and with them quietly erodes a speedup an
// earlier PR bought fails here, at review time, not three PRs later.
type Baselines struct {
	// Tolerance is the allowed fractional slip per ratio (0.25 = a ratio
	// may come in 25% under its pinned value before the gate fails).
	// Ratios are simulation-deterministic, so the headroom absorbs
	// intentional re-tuning of workload constants, not host noise.
	Tolerance float64            `json:"tolerance"`
	Ratios    map[string]float64 `json:"ratios"`
}

// LoadBaselines reads a pinned baseline file. A tolerance outside (0,1), a
// pin that is not positive, or a pin on an experiment the registry does
// not hold is an error: a misspelled name must not read as "not pinned".
func LoadBaselines(path string) (Baselines, error) {
	var b Baselines
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if b.Tolerance <= 0 || b.Tolerance >= 1 {
		return b, fmt.Errorf("%s: tolerance %v out of (0,1)", path, b.Tolerance)
	}
	for name, pinned := range b.Ratios {
		exp, _, _ := strings.Cut(name, ".")
		if _, ok := Lookup(exp); !ok {
			return b, fmt.Errorf("%s: %s is pinned, but there is no experiment %q", path, name, exp)
		}
		if pinned <= 0 {
			return b, fmt.Errorf("%s: %s is pinned at %v, want a positive ratio", path, name, pinned)
		}
	}
	return b, nil
}

// Gate checks the report's ratios against the pinned ones and returns how
// many it checked. A ratio that slipped below pinned*(1-Tolerance) is an
// error naming it; so is a ratio pinned under the report's experiment
// that the report does not carry. Ratios that are not pinned are skipped,
// so baselines can be introduced one at a time.
func Gate(r Report, b Baselines) (checked int, err error) {
	var errs []error
	prefix := r.Exp + "."
	reported := make(map[string]bool)
	for _, m := range r.Ratios {
		name := prefix + m.Name
		reported[name] = true
		pinned, ok := b.Ratios[name]
		if !ok {
			continue
		}
		checked++
		if floor := pinned * (1 - b.Tolerance); m.Value < floor {
			errs = append(errs, fmt.Errorf("%s = %.3f, below floor %.3f (pinned %.3f, tolerance %.0f%%)",
				name, m.Value, floor, pinned, 100*b.Tolerance))
		}
	}
	for _, name := range slices.Sorted(maps.Keys(b.Ratios)) {
		if strings.HasPrefix(name, prefix) && !reported[name] {
			errs = append(errs, fmt.Errorf("%s is pinned, but the %s report carries no such ratio", name, r.Exp))
		}
	}
	return checked, errors.Join(errs...)
}

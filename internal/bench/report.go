package bench

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// Metric is one reported value — the shape the reports of benchmark/ use.
// Every value here is a virtual-clock quantity: it repeats exactly for a
// given seed, so a checked-in report can be compared byte for byte.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Named is a Metric under its name. Reports hold slices of them, not
// maps: the order a cell reports its values in is the order of the table's
// columns and of the JSON.
type Named struct {
	Name string `json:"name"`
	Metric
}

// Label is one coordinate of a point (or one parameter of a report).
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Point is one cell of an experiment: where it sits in the sweep, and
// what it measured. Every point of a report carries the same label names
// and the same value names in the same order.
type Point struct {
	Labels []Label `json:"labels"`
	Values []Named `json:"values"`
}

// Report is what every experiment returns, what ftbench prints, what the
// BENCH_<exp>.json files hold and what the gate reads. Params are the
// constants the points were measured at; Ratios are the headline values
// derived from the points — the numbers goldens/bench-baselines.json pins.
type Report struct {
	Exp    string  `json:"exp"`
	Seed   int64   `json:"seed"`
	Params []Label `json:"params,omitempty"`
	Points []Point `json:"points"`
	Ratios []Named `json:"ratios,omitempty"`
}

func label(name string, v any) Label { return Label{Name: name, Value: fmt.Sprint(v)} }

func val[T ~int | ~int64 | ~uint64 | ~float64](name string, v T, unit string) Named {
	return Named{Name: name, Metric: Metric{Value: float64(v), Unit: unit}}
}

// ms converts a virtual duration or instant (both count nanoseconds) to
// milliseconds.
func ms[T ~int64](d T) float64 { return float64(d) / float64(time.Millisecond) }

// Label returns the value of the named label, "" when the point has none.
func (p *Point) Label(name string) string {
	for _, l := range p.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Value returns the named value. Asking for a name the point does not
// report is a bug in the caller and panics: it must not read as zero.
func (p *Point) Value(name string) float64 {
	for _, v := range p.Values {
		if v.Name == name {
			return v.Value
		}
	}
	panic(fmt.Sprintf("bench: point %v reports no value %q", p.Labels, name))
}

// Point returns the first point whose labels carry every given name/value
// pair (values are compared in their printed form), or an error naming the
// pairs when the report holds no such point.
func (r *Report) Point(kv ...any) (*Point, error) {
next:
	for i := range r.Points {
		p := &r.Points[i]
		for j := 0; j+1 < len(kv); j += 2 {
			if p.Label(fmt.Sprint(kv[j])) != fmt.Sprint(kv[j+1]) {
				continue next
			}
		}
		return p, nil
	}
	return nil, fmt.Errorf("bench: %s report has no point at %v", r.Exp, kv)
}

// derive computes a report's ratios from its points. The first cell that
// is not in the report, or ratio whose denominator is zero, becomes err
// and turns the rest into no-ops — a sweep that lost the cell or the
// metric its headline is read from must fail, not report a ratio against 1.
type derive struct {
	r   *Report
	err error
}

// v reads one value of the point at kv.
func (d *derive) v(name string, kv ...any) float64 {
	if d.err != nil {
		return 0
	}
	p, err := d.r.Point(kv...)
	if err != nil {
		d.err = err
		return 0
	}
	return p.Value(name)
}

// ratio appends num/den to the report's ratios and returns it.
func (d *derive) ratio(name string, num, den float64) float64 {
	if d.err != nil {
		return 0
	}
	if den == 0 {
		d.err = fmt.Errorf("bench: ratio %s.%s has a zero denominator", d.r.Exp, name)
		return 0
	}
	d.r.Ratios = append(d.r.Ratios, val(name, num/den, "x"))
	return num / den
}

// String prints a value the way the tables do: durations as durations,
// whole numbers whole, everything else to one decimal (none from 1000 up).
func (m Metric) String() string {
	switch m.Unit {
	case "ns":
		return time.Duration(m.Value).String()
	case "x":
		return strconv.FormatFloat(m.Value, 'g', 5, 64) + "x"
	case "%":
		return fmt.Sprintf("%.1f%%", m.Value)
	}
	if m.Value == math.Trunc(m.Value) || math.Abs(m.Value) >= 1000 {
		return strconv.FormatFloat(m.Value, 'f', 0, 64)
	}
	return strconv.FormatFloat(m.Value, 'f', 1, 64)
}

// Table writes the report as text: the parameters, one aligned row per
// point (labels, then values) and one line per ratio.
func (r *Report) Table(w io.Writer) {
	if len(r.Params) > 0 {
		fmt.Fprint(w, "params:")
		for _, p := range r.Params {
			fmt.Fprintf(w, " %s=%s", p.Name, p.Value)
		}
		fmt.Fprintln(w)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for i, p := range r.Points {
		var header, rule, row []string
		for _, l := range p.Labels {
			header, row = append(header, l.Name), append(row, l.Value)
		}
		for _, v := range p.Values {
			header, row = append(header, v.Name), append(row, v.String())
		}
		if i == 0 {
			for _, h := range header {
				rule = append(rule, strings.Repeat("-", len(h)))
			}
			fmt.Fprintln(tw, strings.Join(header, "\t"))
			fmt.Fprintln(tw, strings.Join(rule, "\t"))
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, m := range r.Ratios {
		fmt.Fprintf(w, "%s = %s\n", m.Name, m.Metric)
	}
}

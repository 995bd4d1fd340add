package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Tolerances configures Diff. Tolerances are relative: two values differ
// when |a-b| / max(|a|,|b|) exceeds the metric's tolerance (so 0 means
// exactly equal, and equal non-finite values never differ). Metric
// overrides the default per key: for row values the key is the metric
// name ("p99"); for series points it is the full series name
// ("p99-firm", "reward/One-for-All") — series have no separate metric
// field, the name is their identity.
type Tolerances struct {
	Default float64
	Metric  map[string]float64
}

// tol returns the tolerance for a metric name.
func (t Tolerances) tol(metric string) float64 {
	if v, ok := t.Metric[metric]; ok {
		return v
	}
	return t.Default
}

// Mismatch is one metric-level difference between two campaign files.
type Mismatch struct {
	// Path locates the difference: "id/rows[label]/metric",
	// "id/series[name][i]", or a structural location.
	Path string
	// Detail is the human-readable description of the difference.
	Detail string
}

func (m Mismatch) String() string { return m.Path + ": " + m.Detail }

// DiffResult separates counted mismatches from informational notes:
// configuration differences (tool, scale, seed, per-report workers) are
// reported but do not fail a comparison — cross-seed and cross-machine
// comparisons with tolerances are a designed use of -diff.
type DiffResult struct {
	Mismatches []Mismatch
	Notes      []string
}

// Format renders the readable mismatch report.
func (d DiffResult) Format() string {
	var sb strings.Builder
	for _, n := range d.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	for _, m := range d.Mismatches {
		sb.WriteString(m.String() + "\n")
	}
	if len(d.Mismatches) == 0 {
		sb.WriteString("0 mismatches: campaigns agree within tolerance\n")
	} else {
		sb.WriteString(fmt.Sprintf("%d mismatches\n", len(d.Mismatches)))
	}
	return sb.String()
}

// Diff compares two campaign files metric-by-metric. Reports are matched
// by id, rows by label, values by metric name, series by name (pointwise).
// Missing counterparts, dim changes, and out-of-tolerance values are
// mismatches; campaign-level configuration differences are notes.
func Diff(a, b *Campaign, tol Tolerances) DiffResult {
	var d DiffResult
	note := func(field string, av, bv any) {
		if av != bv {
			d.Notes = append(d.Notes, fmt.Sprintf("%s differs: %v vs %v", field, av, bv))
		}
	}
	note("tool", a.Tool, b.Tool)
	note("scale", a.Scale, b.Scale)
	note("seed", a.Seed, b.Seed)

	match(&d, a.Reports, b.Reports, "report id", "report",
		func(r *Report) string { return r.ID },
		func(id string) string { return id },
		func(_ string, ra, rb *Report) { d.diffReport(ra, rb, tol, a, b) })
	return d
}

// match pairs a's items with b's by key, in a's order, and compares each
// pair with both. A key twice in one file, or in one file only, is a
// mismatch at path(key): "duplicate <dup> in … file", "<noun> missing
// from … file".
func match[T any](d *DiffResult, a, b []T, dup, noun string, key func(T) string, path func(string) string, both func(path string, x, y T)) {
	bByKey := map[string]T{}
	for _, y := range b {
		if _, ok := bByKey[key(y)]; ok {
			d.add(path(key(y)), "duplicate %s in second file", dup)
			continue
		}
		bByKey[key(y)] = y
	}
	seen := map[string]bool{}
	for _, x := range a {
		k := key(x)
		if seen[k] {
			d.add(path(k), "duplicate %s in first file", dup)
			continue
		}
		seen[k] = true
		y, ok := bByKey[k]
		if !ok {
			d.add(path(k), "%s missing from second file", noun)
			continue
		}
		both(path(k), x, y)
	}
	for _, y := range b {
		if !seen[key(y)] {
			d.add(path(key(y)), "%s missing from first file", noun)
		}
	}
}

func (d *DiffResult) add(path, format string, args ...any) {
	d.Mismatches = append(d.Mismatches, Mismatch{Path: path, Detail: fmt.Sprintf(format, args...)})
}

func (d *DiffResult) diffReport(a, b *Report, tol Tolerances, ca, cb *Campaign) {
	note := func(field string, av, bv any) {
		if av != bv {
			d.Notes = append(d.Notes, fmt.Sprintf("%s: %s differs: %v vs %v", a.ID, field, av, bv))
		}
	}
	// Per-report configuration divergence is a note, like the campaign
	// header's — but when a report merely restates its own campaign's
	// header (the local firmbench stamping), the campaign-level note
	// already covers it and repeating it per report would be noise.
	if a.Scale != ca.Scale || b.Scale != cb.Scale {
		note("scale", a.Scale, b.Scale)
	}
	if a.Seed != ca.Seed || b.Seed != cb.Seed {
		note("seed", a.Seed, b.Seed)
	}

	match(d, a.Rows, b.Rows, "row label", "row",
		func(w *Row) string { return w.Label },
		func(label string) string { return fmt.Sprintf("%s/rows[%s]", a.ID, label) },
		func(path string, ra, rb *Row) { d.diffRow(path, ra, rb, tol) })
	match(d, a.Series, b.Series, "series name", "series",
		func(s Series) string { return s.Name },
		func(name string) string { return fmt.Sprintf("%s/series[%s]", a.ID, name) },
		func(path string, sa, sb Series) { d.diffSeries(path, &sa, &sb, tol) })
}

func (d *DiffResult) diffRow(path string, a, b *Row, tol Tolerances) {
	for _, k := range dimKeys(a.Dims, b.Dims) {
		av, aok := a.Dims[k]
		bv, bok := b.Dims[k]
		switch {
		case !aok:
			d.add(path+"/dims["+k+"]", "dim missing from first file (second: %q)", bv)
		case !bok:
			d.add(path+"/dims["+k+"]", "dim missing from second file (first: %q)", av)
		case av != bv:
			d.add(path+"/dims["+k+"]", "%q vs %q", av, bv)
		}
	}
	match(d, a.Values, b.Values, "metric", "metric",
		func(v Value) string { return v.Metric },
		func(metric string) string { return path + "/" + metric },
		func(vpath string, va, vb Value) {
			if va.Unit != vb.Unit {
				d.add(vpath, "unit differs: %q vs %q", va.Unit, vb.Unit)
				return
			}
			d.diffValue(vpath, va.Metric, float64(va.Value), float64(vb.Value), tol)
		})
}

func (d *DiffResult) diffSeries(path string, a, b *Series, tol Tolerances) {
	if a.Unit != b.Unit {
		d.add(path, "unit differs: %q vs %q", a.Unit, b.Unit)
		return
	}
	if len(a.Y) != len(b.Y) || len(a.X) != len(b.X) {
		d.add(path, "length differs: %d/%d points vs %d/%d (x/y)", len(a.X), len(a.Y), len(b.X), len(b.Y))
		return
	}
	// The x-axis is structural: comparing y values pointwise is only
	// meaningful when both series sample the same coordinates, so axis
	// drift always mismatches — no tolerance applies to x.
	for i := range a.X {
		d.diffValue(fmt.Sprintf("%s/x[%d]", path, i), a.Name, float64(a.X[i]), float64(b.X[i]), Tolerances{})
	}
	for i := range a.Y {
		d.diffValue(fmt.Sprintf("%s[%d]", path, i), a.Name, float64(a.Y[i]), float64(b.Y[i]), tol)
	}
}

func (d *DiffResult) diffValue(path, metric string, a, b float64, tol Tolerances) {
	if rel, differ := relDiff(a, b); differ && rel > tol.tol(metric) {
		d.add(path, "%v vs %v (rel diff %.3g > tol %g)", Float(a), Float(b), rel, tol.tol(metric))
	}
}

// relDiff returns the relative difference between a and b and whether they
// differ at all. Equal values — including two NaNs or two same-signed
// infinities, which a deterministic reproduction legitimately emits — do
// not differ; any other pair involving a non-finite value differs
// infinitely.
func relDiff(a, b float64) (float64, bool) {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return 0, false
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return math.Inf(1), true
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b)), true
}

// dimKeys merges and sorts the key sets of dim maps.
func dimKeys(ms ...map[string]string) []string {
	set := map[string]bool{}
	for _, m := range ms {
		for k := range m {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

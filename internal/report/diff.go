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

	bByID := map[string]*Report{}
	for _, r := range b.Reports {
		if _, dup := bByID[r.ID]; dup {
			d.add(r.ID, "duplicate report id in second file")
			continue
		}
		bByID[r.ID] = r
	}
	seen := map[string]bool{}
	for _, ra := range a.Reports {
		if seen[ra.ID] {
			d.add(ra.ID, "duplicate report id in first file")
			continue
		}
		seen[ra.ID] = true
		rb, ok := bByID[ra.ID]
		if !ok {
			d.add(ra.ID, "report missing from second file")
			continue
		}
		d.diffReport(ra, rb, tol, a, b)
	}
	for _, rb := range b.Reports {
		if !seen[rb.ID] {
			d.add(rb.ID, "report missing from first file")
		}
	}
	return d
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

	bRows := map[string]*Row{}
	for _, w := range b.Rows {
		if _, dup := bRows[w.Label]; dup {
			d.add(fmt.Sprintf("%s/rows[%s]", a.ID, w.Label), "duplicate row label in second file")
			continue
		}
		bRows[w.Label] = w
	}
	seen := map[string]bool{}
	for _, ra := range a.Rows {
		path := fmt.Sprintf("%s/rows[%s]", a.ID, ra.Label)
		if seen[ra.Label] {
			d.add(path, "duplicate row label in first file")
			continue
		}
		seen[ra.Label] = true
		rb, ok := bRows[ra.Label]
		if !ok {
			d.add(path, "row missing from second file")
			continue
		}
		d.diffRow(path, ra, rb, tol)
	}
	for _, rb := range b.Rows {
		if !seen[rb.Label] {
			d.add(fmt.Sprintf("%s/rows[%s]", a.ID, rb.Label), "row missing from first file")
		}
	}

	bSeries := map[string]*Series{}
	for i := range b.Series {
		s := &b.Series[i]
		if _, dup := bSeries[s.Name]; dup {
			d.add(fmt.Sprintf("%s/series[%s]", a.ID, s.Name), "duplicate series name in second file")
			continue
		}
		bSeries[s.Name] = s
	}
	seenS := map[string]bool{}
	for i := range a.Series {
		sa := &a.Series[i]
		path := fmt.Sprintf("%s/series[%s]", a.ID, sa.Name)
		if seenS[sa.Name] {
			d.add(path, "duplicate series name in first file")
			continue
		}
		seenS[sa.Name] = true
		sb, ok := bSeries[sa.Name]
		if !ok {
			d.add(path, "series missing from second file")
			continue
		}
		d.diffSeries(path, sa, sb, tol)
	}
	for i := range b.Series {
		if !seenS[b.Series[i].Name] {
			d.add(fmt.Sprintf("%s/series[%s]", a.ID, b.Series[i].Name), "series missing from first file")
		}
	}
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
	bVals := map[string]Value{}
	for _, v := range b.Values {
		if _, dup := bVals[v.Metric]; dup {
			d.add(path+"/"+v.Metric, "duplicate metric in second file")
			continue
		}
		bVals[v.Metric] = v
	}
	seen := map[string]bool{}
	for _, va := range a.Values {
		vpath := path + "/" + va.Metric
		if seen[va.Metric] {
			d.add(vpath, "duplicate metric in first file")
			continue
		}
		seen[va.Metric] = true
		vb, ok := bVals[va.Metric]
		if !ok {
			d.add(vpath, "metric missing from second file")
			continue
		}
		if va.Unit != vb.Unit {
			d.add(vpath, "unit differs: %q vs %q", va.Unit, vb.Unit)
			continue
		}
		d.diffValue(vpath, va.Metric, float64(va.Value), float64(vb.Value), tol)
	}
	for _, vb := range b.Values {
		if !seen[vb.Metric] {
			d.add(path+"/"+vb.Metric, "metric missing from first file")
		}
	}
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

// dimKeys merges and sorts the key sets of two dim maps.
func dimKeys(a, b map[string]string) []string {
	set := map[string]bool{}
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Package report defines the structured result schema shared by every
// firmbench experiment artifact. An experiment converts its result into a
// Report — labelled rows of named metric values plus named series — which
// then renders two ways: as ASCII tables (Text, text.go), which is what
// firmbench prints, and as a canonical JSON encoding (json.go) that is
// byte-stable across machines and worker counts. Both are functions of the
// record alone, so a number the text shows is a number the JSON carries.
// Diff (diff.go) compares two campaign files metric-by-metric with
// per-metric tolerances, which is what `firmbench -diff` and the CI
// determinism step run.
package report

// Value is one named metric measurement.
type Value struct {
	Metric string `json:"metric"`
	Unit   string `json:"unit,omitempty"`
	Value  Float  `json:"value"`
}

// Row is one labelled row of metrics. Labels are unique within a report
// (Diff matches rows by label). Dims carry categorical result attributes —
// a winning strategy, a critical-path signature — that are compared exactly
// rather than numerically.
type Row struct {
	Label  string            `json:"label"`
	Dims   map[string]string `json:"dims,omitempty"`
	Values []Value           `json:"values,omitempty"`
}

// Val appends a metric value to the row and returns the row for chaining.
func (w *Row) Val(metric, unit string, v float64) *Row {
	w.Values = append(w.Values, Value{Metric: metric, Unit: unit, Value: Float(v)})
	return w
}

// Dim sets a categorical attribute on the row.
func (w *Row) Dim(key, val string) *Row {
	if w.Dims == nil {
		w.Dims = map[string]string{}
	}
	w.Dims[key] = val
	return w
}

// Series is one named sequence of points. X is optional (episode numbers,
// seconds, FPR values); names are unique within a report.
type Series struct {
	Name string  `json:"name"`
	Unit string  `json:"unit,omitempty"`
	X    []Float `json:"x,omitempty"`
	Y    []Float `json:"y,omitempty"`
}

// Report is one experiment artifact as a typed record.
type Report struct {
	// ID is the experiment id ("fig10", "table1", ...).
	ID string `json:"id"`
	// Scale and Seed identify the campaign configuration that produced the
	// record; the campaign runner stamps them.
	Scale string `json:"scale,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	// No field records where the report was computed: the schema holds
	// results alone, so a file is byte-identical across worker counts,
	// shard counts and machine splits.
	Rows   []*Row   `json:"rows,omitempty"`
	Series []Series `json:"series,omitempty"`
}

// New starts an empty report for the given experiment id.
func New(id string) *Report {
	return &Report{ID: id}
}

// Row appends an empty labelled row and returns it for chaining. The
// returned handle stays valid across later Row calls (rows are held by
// pointer, so appends never invalidate it).
func (r *Report) Row(label string) *Row {
	w := &Row{Label: label}
	r.Rows = append(r.Rows, w)
	return w
}

// AddSeries appends a named series; x may be nil.
func (r *Report) AddSeries(name, unit string, x, y []float64) {
	r.Series = append(r.Series, Series{Name: name, Unit: unit, X: Floats(x), Y: Floats(y)})
}

// Floats converts a float64 slice to the JSON-safe Float representation.
func Floats(xs []float64) []Float {
	if xs == nil {
		return nil
	}
	out := make([]Float, len(xs))
	for i, x := range xs {
		out[i] = Float(x)
	}
	return out
}

// Campaign is one firmbench invocation's result file: the experiment
// reports it produced plus the configuration that identifies the run.
type Campaign struct {
	Tool    string    `json:"tool"`
	Scale   string    `json:"scale"`
	Seed    int64     `json:"seed"`
	Reports []*Report `json:"reports"`
}

// Merge appends a report to the campaign. Callers merge in declaration
// order: report order is part of the canonical encoding, so the merge
// order, not completion order, fixes the bytes.
func (c *Campaign) Merge(rep *Report) {
	c.Reports = append(c.Reports, rep)
}

package report

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// seriesRows is the most points a series table shows. A longer series is
// subsampled evenly, first and last point included; the record keeps
// every point.
const seriesRows = 12

// Text renders the report as ASCII tables; it reads nothing but the record.
// Consecutive rows with the same (metric, unit) sequence share one table
// whose leading columns are the label and the union of the rows' dim keys,
// sorted ("-" where a row lacks one). Series with the same x vector and
// length share one table keyed by x (by point index when x is absent).
// Every number is formatted by num. Tables are separated by a blank line.
func (r *Report) Text() string {
	var parts []string
	for i := 0; i < len(r.Rows); {
		j := i + 1
		for j < len(r.Rows) && sameColumns(r.Rows[i], r.Rows[j]) {
			j++
		}
		parts = append(parts, rowTable(r.Rows[i:j]).String())
		i = j
	}
	for _, g := range seriesGroups(r.Series) {
		parts = append(parts, seriesTable(g).String())
	}
	return strings.Join(parts, "\n")
}

// sameColumns reports whether two rows carry the same (metric, unit)
// sequence.
func sameColumns(a, b *Row) bool {
	if len(a.Values) != len(b.Values) {
		return false
	}
	for i, v := range a.Values {
		if v.Metric != b.Values[i].Metric || v.Unit != b.Values[i].Unit {
			return false
		}
	}
	return true
}

// rowTable renders rows that share one column sequence.
func rowTable(rows []*Row) *table {
	dims := make([]map[string]string, len(rows))
	for i, w := range rows {
		dims[i] = w.Dims
	}
	keys := dimKeys(dims...)
	t := &table{header: append([]string{"label"}, keys...)}
	for _, v := range rows[0].Values {
		t.header = append(t.header, column(v.Metric, v.Unit))
	}
	for _, w := range rows {
		cells := []string{w.Label}
		for _, k := range keys {
			d, ok := w.Dims[k]
			if !ok {
				d = "-"
			}
			cells = append(cells, d)
		}
		for _, v := range w.Values {
			cells = append(cells, num(float64(v.Value)))
		}
		t.add(cells...)
	}
	return t
}

// seriesGroups partitions series into groups sharing one x vector and
// length, in order of each group's first member.
func seriesGroups(series []Series) [][]Series {
	var groups [][]Series
next:
	for _, s := range series {
		for i, g := range groups {
			if sameAxis(g[0], s) {
				groups[i] = append(g, s)
				continue next
			}
		}
		groups = append(groups, []Series{s})
	}
	return groups
}

// sameAxis reports whether two series have bit-identical x vectors and
// the same number of points.
func sameAxis(a, b Series) bool {
	if len(a.X) != len(b.X) || len(a.Y) != len(b.Y) {
		return false
	}
	for i, x := range a.X {
		if math.Float64bits(float64(x)) != math.Float64bits(float64(b.X[i])) {
			return false
		}
	}
	return true
}

// seriesTable renders series that share one x vector, at most seriesRows
// of their points.
func seriesTable(g []Series) *table {
	xs := g[0].X
	n := max(len(xs), len(g[0].Y))
	t := &table{header: []string{"x"}}
	if len(xs) == 0 {
		t.header[0] = "i"
	}
	for _, s := range g {
		t.header = append(t.header, column(s.Name, s.Unit))
	}
	idx := spread(n, seriesRows)
	if len(idx) < n {
		t.title = fmt.Sprintf("%d of %d points", len(idx), n)
	}
	for _, i := range idx {
		cells := []string{strconv.Itoa(i)}
		if len(xs) > 0 {
			cells[0] = at(xs, i)
		}
		for _, s := range g {
			cells = append(cells, at(s.Y, i))
		}
		t.add(cells...)
	}
	return t
}

// spread picks at most k of n indices, evenly spaced, first and last
// included.
func spread(n, k int) []int {
	m := min(n, k)
	out := make([]int, m)
	for j := range out {
		out[j] = j
		if n > k {
			out[j] = j * (n - 1) / (k - 1)
		}
	}
	return out
}

// at formats xs[i], or an empty cell past the end.
func at(xs []Float, i int) string {
	if i >= len(xs) {
		return ""
	}
	return num(float64(xs[i]))
}

// column names a metric's column.
func column(metric, unit string) string {
	if unit == "" {
		return metric
	}
	return metric + " (" + unit + ")"
}

// num is the one number format of Text: an integer below 1e15 in full,
// any other finite value to six significant digits, and NaN and ±Inf as
// the canonical JSON spells them.
func num(v float64) string {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		b, _ := Float(v).MarshalJSON()
		return strings.Trim(string(b), `"`)
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

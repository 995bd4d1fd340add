package report

import (
	"math"
	"strings"
	"testing"
)

func diffCampaign() *Campaign {
	rep := New("fig-test")
	rep.Row("policy-a").Dim("winner", "scale-up").
		Val("p99", "ms", 100).
		Val("drops", "count", 0)
	rep.AddSeries("curve", "ms", []float64{1, 2}, []float64{10, 20})
	return &Campaign{Tool: "firmbench", Scale: "tiny", Seed: 42, Reports: []*Report{rep}}
}

func TestDiffIdentical(t *testing.T) {
	d := Diff(diffCampaign(), diffCampaign(), Tolerances{})
	if len(d.Mismatches) != 0 || len(d.Notes) != 0 {
		t.Fatalf("identical campaigns: %+v", d)
	}
	if !strings.Contains(d.Format(), "0 mismatches") {
		t.Fatalf("format should report zero mismatches: %q", d.Format())
	}
}

func TestDiffValueTolerance(t *testing.T) {
	b := diffCampaign()
	b.Reports[0].Rows[0].Values[0].Value = 103 // p99: 100 → 103, rel diff ~0.029

	d := Diff(diffCampaign(), b, Tolerances{})
	if len(d.Mismatches) != 1 {
		t.Fatalf("tol 0 must flag the change: %+v", d.Mismatches)
	}
	if got := d.Mismatches[0].Path; got != "fig-test/rows[policy-a]/p99" {
		t.Fatalf("wrong path %q", got)
	}

	if d := Diff(diffCampaign(), b, Tolerances{Default: 0.05}); len(d.Mismatches) != 0 {
		t.Fatalf("rel diff 0.029 within tol 0.05: %+v", d.Mismatches)
	}
	if d := Diff(diffCampaign(), b, Tolerances{Default: 0.01}); len(d.Mismatches) != 1 {
		t.Fatalf("rel diff 0.029 exceeds tol 0.01: %+v", d.Mismatches)
	}
}

func TestDiffPerMetricTolerance(t *testing.T) {
	b := diffCampaign()
	b.Reports[0].Rows[0].Values[0].Value = 103 // p99 drifts
	b.Reports[0].Rows[0].Values[1].Value = 1   // drops 0 → 1: rel diff 1

	tol := Tolerances{Default: 0, Metric: map[string]float64{"p99": 0.05}}
	d := Diff(diffCampaign(), b, tol)
	if len(d.Mismatches) != 1 || !strings.Contains(d.Mismatches[0].Path, "drops") {
		t.Fatalf("only drops should mismatch under per-metric override: %+v", d.Mismatches)
	}
}

func TestDiffStructural(t *testing.T) {
	a := diffCampaign()
	b := diffCampaign()
	b.Reports[0].Rows[0].Label = "policy-b"                  // row renamed
	b.Reports[0].Series[0].Y = Floats([]float64{10, 20, 30}) // length change
	b.Reports = append(b.Reports, New("extra"))              // new report
	d := Diff(a, b, Tolerances{Default: 10})                 // huge tol: structure still counts
	var paths []string
	for _, m := range d.Mismatches {
		paths = append(paths, m.Path)
	}
	joined := strings.Join(paths, "\n")
	for _, want := range []string{
		"fig-test/rows[policy-a]", // missing from second
		"fig-test/rows[policy-b]", // missing from first
		"fig-test/series[curve]",  // length differs
		"extra",                   // report missing from first
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("expected a mismatch at %s, got:\n%s", want, joined)
		}
	}
	if len(d.Mismatches) != 4 {
		t.Fatalf("want 4 mismatches, got %d:\n%s", len(d.Mismatches), joined)
	}
}

func TestDiffDimsAndUnits(t *testing.T) {
	b := diffCampaign()
	b.Reports[0].Rows[0].Dims["winner"] = "scale-out"
	b.Reports[0].Rows[0].Values[0].Unit = "s"
	d := Diff(diffCampaign(), b, Tolerances{Default: 10})
	joined := d.Format()
	if !strings.Contains(joined, `dims[winner]`) || !strings.Contains(joined, "unit differs") {
		t.Fatalf("dim and unit changes must mismatch regardless of tolerance:\n%s", joined)
	}
	if len(d.Mismatches) != 2 {
		t.Fatalf("want 2 mismatches:\n%s", joined)
	}
}

func TestDiffNonFinite(t *testing.T) {
	a := diffCampaign()
	a.Reports[0].Rows[0].Values[0].Value = Float(math.NaN())
	b := diffCampaign()
	b.Reports[0].Rows[0].Values[0].Value = Float(math.NaN())
	if d := Diff(a, b, Tolerances{}); len(d.Mismatches) != 0 {
		t.Fatalf("NaN == NaN for a deterministic reproduction: %+v", d.Mismatches)
	}
	b.Reports[0].Rows[0].Values[0].Value = 5
	if d := Diff(a, b, Tolerances{Default: 100}); len(d.Mismatches) != 1 {
		t.Fatal("NaN vs finite must mismatch at any tolerance")
	}
}

// TestDiffNonFiniteUnderTolerance pins the non-finite contract with a
// nonzero tolerance in force: equal non-finite values (NaN/NaN, same-signed
// infinities) match exactly, every other pairing involving a non-finite
// value mismatches no matter how loose the tolerance — a relative tolerance
// has no meaning against NaN or Inf.
func TestDiffNonFiniteUnderTolerance(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tol := Tolerances{Default: 0.5, Metric: map[string]float64{"p99": 1e9}}
	cases := []struct {
		name     string
		av, bv   float64
		mismatch bool
	}{
		{"nan-nan", nan, nan, false},
		{"inf-inf", inf, inf, false},
		{"neginf-neginf", -inf, -inf, false},
		{"nan-number", nan, 100, true},
		{"number-nan", 100, nan, true},
		{"inf-neginf", inf, -inf, true},
		{"inf-number", inf, 1e300, true},
		{"nan-inf", nan, inf, true},
	}
	for _, tc := range cases {
		a, b := diffCampaign(), diffCampaign()
		a.Reports[0].Rows[0].Values[0].Value = Float(tc.av) // metric "p99"
		b.Reports[0].Rows[0].Values[0].Value = Float(tc.bv)
		d := Diff(a, b, tol)
		if got := len(d.Mismatches) > 0; got != tc.mismatch {
			t.Errorf("%s: mismatch=%v, want %v (%+v)", tc.name, got, tc.mismatch, d.Mismatches)
		}
	}
	// Series points follow the same rule under per-series tolerance.
	a, b := diffCampaign(), diffCampaign()
	a.Reports[0].Series[0].Y = []Float{Float(nan), Float(inf)}
	b.Reports[0].Series[0].Y = []Float{Float(nan), Float(inf)}
	if d := Diff(a, b, tol); len(d.Mismatches) != 0 {
		t.Fatalf("equal non-finite series points must match: %+v", d.Mismatches)
	}
	b.Reports[0].Series[0].Y = []Float{Float(nan), 20}
	d := Diff(a, b, Tolerances{Default: 0.5, Metric: map[string]float64{"curve": 1e9}})
	if len(d.Mismatches) != 1 || !strings.Contains(d.Mismatches[0].Path, "series[curve]") {
		t.Fatalf("Inf vs finite series point must mismatch at any tolerance: %+v", d.Mismatches)
	}
}

func TestDiffSeriesToleranceKeysOffSeriesName(t *testing.T) {
	b := diffCampaign()
	b.Reports[0].Series[0].Y[0] = 10.5 // "curve" point: rel diff ~0.048

	tol := Tolerances{Default: 0, Metric: map[string]float64{"curve": 0.05}}
	if d := Diff(diffCampaign(), b, tol); len(d.Mismatches) != 0 {
		t.Fatalf("series points must use the series name as tolerance key: %+v", d.Mismatches)
	}
	if d := Diff(diffCampaign(), b, Tolerances{}); len(d.Mismatches) != 1 {
		t.Fatal("series drift must mismatch without the override")
	}
}

func TestDiffSeriesXAxisIgnoresTolerance(t *testing.T) {
	// y tolerances must not excuse a shifted sampling axis: comparing y
	// pointwise is only meaningful on identical coordinates.
	b := diffCampaign()
	b.Reports[0].Series[0].X[0] = 1.1
	d := Diff(diffCampaign(), b, Tolerances{Default: 0.5, Metric: map[string]float64{"curve": 0.5}})
	if len(d.Mismatches) != 1 || !strings.Contains(d.Mismatches[0].Path, "x[0]") {
		t.Fatalf("x-axis drift must mismatch at any tolerance: %+v", d.Mismatches)
	}
}

func TestDiffDuplicateKeys(t *testing.T) {
	// Duplicate ids/labels/names must surface as structural mismatches,
	// not silently collapse to a last-wins comparison.
	dup := func() *Campaign {
		c := diffCampaign()
		c.Reports[0].Rows = append(c.Reports[0].Rows, &Row{Label: "policy-a"})
		c.Reports[0].Series = append(c.Reports[0].Series, Series{Name: "curve"})
		c.Reports[0].Rows[0].Values = append(c.Reports[0].Rows[0].Values, Value{Metric: "p99"})
		c.Reports = append(c.Reports, New("fig-test"))
		return c
	}
	for _, tc := range []struct{ a, b *Campaign }{{dup(), diffCampaign()}, {diffCampaign(), dup()}} {
		d := Diff(tc.a, tc.b, Tolerances{Default: 1000})
		joined := d.Format()
		for _, want := range []string{
			"duplicate report id", "duplicate row label",
			"duplicate series name", "duplicate metric",
		} {
			if !strings.Contains(joined, want) {
				t.Errorf("expected %q in:\n%s", want, joined)
			}
		}
	}
}

// TestDiffIgnoresLegacyWorkersField: campaign files written before the
// schema dropped per-report worker provenance still decode, and diff clean
// at tolerance 0 against a file without it.
func TestDiffIgnoresLegacyWorkersField(t *testing.T) {
	data, err := Marshal(diffCampaign())
	if err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(string(data), `"id": "fig-test"`, `"id": "fig-test", "workers": 3`, 1)
	if legacy == string(data) {
		t.Fatal("fixture has no report to stamp")
	}
	old, err := Decode(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	d := Diff(old, diffCampaign(), Tolerances{})
	if len(d.Mismatches) != 0 || len(d.Notes) != 0 {
		t.Fatalf("legacy workers field must be invisible: %s", d.Format())
	}
}

func TestDiffReportSeedNoteNotDuplicated(t *testing.T) {
	// Reports stamped with their own campaign's seed must not repeat the
	// campaign-level note once per report; a report that diverges from its
	// campaign header must be noted.
	stamp := func(c *Campaign) *Campaign {
		for _, r := range c.Reports {
			r.Scale, r.Seed = c.Scale, c.Seed
		}
		return c
	}
	a := stamp(diffCampaign())
	b := stamp(diffCampaign())
	b.Seed = 43
	b.Reports[0].Seed = 43
	d := Diff(a, b, Tolerances{})
	if len(d.Notes) != 1 {
		t.Fatalf("cross-seed diff should note the seed once, got %v", d.Notes)
	}
	b.Reports[0].Seed = 99 // now inconsistent with its own header
	d = Diff(a, b, Tolerances{})
	if len(d.Notes) != 2 {
		t.Fatalf("divergent per-report seed must add a note, got %v", d.Notes)
	}
}

func TestDiffMetaNotes(t *testing.T) {
	b := diffCampaign()
	b.Seed = 43
	b.Scale = "quick"
	d := Diff(diffCampaign(), b, Tolerances{})
	if len(d.Mismatches) != 0 {
		t.Fatalf("config differences are notes, not mismatches: %+v", d.Mismatches)
	}
	if len(d.Notes) != 2 {
		t.Fatalf("want seed+scale notes, got %v", d.Notes)
	}
}

package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortedPercentile is the sort-based reference PercentileSelect is held to:
// sort a copy in the total order (-0 before +0), then index and interpolate.
func sortedPercentile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.SortFunc(s, func(a, b float64) int {
		switch {
		case a < b || (a == b && math.Signbit(a) && !math.Signbit(b)):
			return -1
		case b < a || (a == b && math.Signbit(b) && !math.Signbit(a)):
			return 1
		}
		return 0
	})
	return percentileSorted(s, p)
}

// selectPs are the ranks the tests ask for: both ends, a sub-percent
// interior rank, and the two the localizer reads.
var selectPs = []float64{0, 0.5, 50, 99, 100}

// checkSelect compares PercentileSelect (on a copy), Percentile and the
// sort-based reference bit for bit at every rank in selectPs, and checks
// that PercentileSelect only reordered its input.
func checkSelect(t *testing.T, what string, xs []float64) {
	t.Helper()
	for _, p := range selectPs {
		want := sortedPercentile(xs, p)
		work := slices.Clone(xs)
		got := PercentileSelect(work, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s n=%d P%v: select %v (%x), sort %v (%x)", what, len(xs), p, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if batch := Percentile(xs, p); math.Float64bits(batch) != math.Float64bits(want) {
			t.Fatalf("%s n=%d P%v: Percentile %v, sort %v", what, len(xs), p, batch, want)
		}
		a, b := slices.Clone(xs), work
		slices.SortFunc(a, compareTotal)
		slices.SortFunc(b, compareTotal)
		if !slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("%s n=%d P%v: PercentileSelect changed the multiset", what, len(xs), p)
		}
	}
}

// TestPercentileSelectTable: hand-picked samples where an off-by-one rank,
// a lost sign on zero or a mishandled run of ties would show.
func TestPercentileSelectTable(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name string
		xs   []float64
	}{
		{"one", []float64{7.5}},
		{"two", []float64{20, 10}},
		{"ascending", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}},
		{"descending", []float64{17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}},
		{"all-equal", slices.Repeat([]float64{3.25}, 40)},
		{"two-values", []float64{1, 2, 1, 2, 2, 1, 1, 2, 1, 2, 2, 2, 1, 1, 1, 2, 2, 1, 2, 1}},
		{"signed-zeros", []float64{0, negZero, 0, negZero, negZero, 0, 0, negZero, 0, 0, negZero, 0, negZero, 0, 0}},
		{"only-negative-zero", slices.Repeat([]float64{negZero}, 15)},
		{"zeros-and-negatives", []float64{-1, 0, negZero, -2, 0, negZero, 1, negZero, -1, 0, 0, negZero, 2, 0}},
		{"infinities", []float64{math.Inf(1), 3, math.Inf(-1), 3, 3, math.Inf(1), -4, 0, 1e308, -1e308, 5, 5, 5, 6}},
	} {
		checkSelect(t, c.name, c.xs)
	}
}

// TestPercentileSelectMatchesSort is the property test: on random NaN-free
// samples of every size from 1 to 300 — drawn from a wide range, from a
// four-value grid (heavy ties) and from a signed-zero-heavy mix — the
// selection equals the sort-based reference bit for bit.
func TestPercentileSelectMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	negZero := math.Copysign(0, -1)
	for n := 1; n <= 300; n++ {
		for kind := 0; kind < 3; kind++ {
			xs := make([]float64, n)
			for i := range xs {
				switch kind {
				case 0:
					xs[i] = r.NormFloat64() * 100
				case 1:
					xs[i] = float64(r.Intn(4)) / 2
				default:
					xs[i] = []float64{0, negZero, 1, -1}[r.Intn(4)]
				}
			}
			checkSelect(t, []string{"wide", "ties", "signed-zeros"}[kind], xs)
		}
	}
}

// TestPercentileNaNRank: a NaN rank is NaN in, NaN out — it used to index
// the slice at int(NaN) and panic — on every path that answers a rank.
func TestPercentileNaNRank(t *testing.T) {
	nan := math.NaN()
	xs := []float64{3, 1, 2}
	if got := Percentile(xs, nan); !math.IsNaN(got) {
		t.Fatalf("Percentile(xs, NaN) = %v, want NaN", got)
	}
	if got := PercentileSelect(xs, nan); !math.IsNaN(got) {
		t.Fatalf("PercentileSelect(xs, NaN) = %v, want NaN", got)
	}
	w := NewWindow(0)
	for _, x := range xs {
		w.Add(x)
	}
	if got := w.Percentile(nan); !math.IsNaN(got) {
		t.Fatalf("Window.Percentile(NaN) = %v, want NaN", got)
	}
	if got := PercentileSelect([]float64{1, nan, 2}, 50); !math.IsNaN(got) {
		t.Fatalf("PercentileSelect over a NaN sample = %v, want NaN", got)
	}
}

// TestPercentileSelectAllocFree: selection works in place.
func TestPercentileSelectAllocFree(t *testing.T) {
	xs := make([]float64, 500)
	r := rand.New(rand.NewSource(6))
	allocs := testing.AllocsPerRun(50, func() {
		for i := range xs {
			xs[i] = float64(r.Intn(50))
		}
		PercentileSelect(xs, 50)
		PercentileSelect(xs, 99)
	})
	if allocs != 0 {
		t.Fatalf("PercentileSelect allocates %v per run, want 0", allocs)
	}
}

// FuzzPercentileSelect holds the selection to the sort-based reference on
// byte-driven samples. Each byte is one value from a 64-step grid that
// straddles zero, so ties and signed zeros are common (0x80 stands for -0);
// the first byte picks the rank. Plain `go test` runs the seed corpus.
func FuzzPercentileSelect(f *testing.F) {
	f.Add([]byte{99, 1})
	f.Add([]byte{50, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Add([]byte{0, 0x80, 0, 0x80, 0, 0x80, 0, 0x80, 0, 0x80, 0, 0x80, 0, 0x80})
	f.Add([]byte{100, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 63, 62, 61, 60, 59, 58, 57, 56})
	f.Add([]byte{1, 40, 2, 33, 2, 40, 17, 2, 40, 33, 2, 17, 40, 2, 33, 40, 2, 17, 33})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		p := float64(in[0]) / 2 // 0 … 127.5: past 100 clamps
		xs := make([]float64, len(in)-1)
		for i, b := range in[1:] {
			xs[i] = float64(int(b%64)-32) / 4
			if b == 0x80 {
				xs[i] = math.Copysign(0, -1)
			}
		}
		want := sortedPercentile(xs, p)
		if got := PercentileSelect(slices.Clone(xs), p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("P%v of %v: select %v (%x), sort %v (%x)", p, xs, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

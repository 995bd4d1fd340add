package stats

import (
	"math"
	"math/rand"
	"testing"
)

// mirror removes one occurrence of x from xs (test-side reference multiset).
func mirrorRemove(xs []float64, x float64) []float64 {
	for i, v := range xs {
		if v == x || (math.IsNaN(v) && math.IsNaN(x)) {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}

// sameFloat compares bit-for-bit, treating NaN as equal to NaN.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestWindowMatchesBatchPercentile drives randomized seeded insert/evict
// sequences and checks that Window.Percentile is bit-identical to the batch
// Percentile over a mirrored slice at every step — the invariant the
// controller's byte-identical-output guarantee rests on.
func TestWindowMatchesBatchPercentile(t *testing.T) {
	ps := []float64{0, 1, 25, 50, 90, 95, 99, 99.9, 100}
	for _, seed := range []int64{1, 7, 42, 20260729} {
		r := rand.New(rand.NewSource(seed))
		w := NewWindow(64)
		var mirror []float64
		for step := 0; step < 3000; step++ {
			if len(mirror) == 0 || r.Float64() < 0.55 {
				// Draw from a small discrete grid so duplicates are common
				// (latencies from an integer-microsecond clock repeat a lot).
				x := math.Floor(r.Float64()*50) / 4
				w.Add(x)
				mirror = append(mirror, x)
			} else {
				i := r.Intn(len(mirror))
				x := mirror[i]
				if !w.Remove(x) {
					t.Fatalf("seed %d step %d: Remove(%v) reported absent", seed, step, x)
				}
				mirror = mirrorRemove(mirror, x)
			}
			if w.Len() != len(mirror) {
				t.Fatalf("seed %d step %d: Len=%d want %d", seed, step, w.Len(), len(mirror))
			}
			p := ps[step%len(ps)]
			got, want := w.Percentile(p), Percentile(mirror, p)
			if !sameFloat(got, want) {
				t.Fatalf("seed %d step %d: P%v = %x, batch %x", seed, step, p, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestWindowNaNPropagation: any NaN in the window poisons every percentile,
// exactly like the batch implementation, and eviction restores service.
func TestWindowNaNPropagation(t *testing.T) {
	w := NewWindow(0)
	w.Add(3)
	w.Add(1)
	if got := w.Percentile(50); got != 2 {
		t.Fatalf("P50 = %v, want 2", got)
	}
	w.Add(math.NaN())
	if got := w.Percentile(50); !math.IsNaN(got) {
		t.Fatalf("P50 with NaN = %v, want NaN", got)
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (NaN counts as an observation)", w.Len())
	}
	if !w.Remove(math.NaN()) {
		t.Fatal("Remove(NaN) reported absent")
	}
	if w.Remove(math.NaN()) {
		t.Fatal("second Remove(NaN) should report absent")
	}
	if got := w.Percentile(50); got != 2 {
		t.Fatalf("P50 after NaN eviction = %v, want 2", got)
	}
}

// TestWindowBoundaries: empty-window and single-sample behavior must match
// the batch implementation exactly.
func TestWindowBoundaries(t *testing.T) {
	w := NewWindow(0)
	for _, p := range []float64{0, 50, 100} {
		if got := w.Percentile(p); !math.IsNaN(got) {
			t.Fatalf("empty P%v = %v, want NaN", p, got)
		}
	}
	w.Add(7.5)
	for _, p := range []float64{0, 1, 50, 99, 100} {
		got, want := w.Percentile(p), Percentile([]float64{7.5}, p)
		if !sameFloat(got, want) {
			t.Fatalf("single-sample P%v = %v, batch %v", p, got, want)
		}
	}
	if w.Remove(8) {
		t.Fatal("Remove of absent value reported present")
	}
	if !w.Remove(7.5) || w.Len() != 0 {
		t.Fatal("Remove of the only value failed")
	}
	if got := w.Percentile(50); !math.IsNaN(got) {
		t.Fatalf("drained-window P50 = %v, want NaN", got)
	}
}

// TestWindowSteadyStateAllocFree: once the node pool has grown to the
// working-set size, insert/evict/percentile cycles allocate nothing — the
// property internal/perf's tick-path alloc budgets are built on.
func TestWindowSteadyStateAllocFree(t *testing.T) {
	w := NewWindow(0)
	for i := 0; i < 512; i++ {
		w.Add(float64(i % 97))
	}
	allocs := testing.AllocsPerRun(200, func() {
		w.Add(13)
		w.Percentile(99)
		w.Remove(13)
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", allocs)
	}
}

// TestWindowComparisonsGrowLogarithmically sanity-checks the O(log W)
// claim: the comparison count per op over a large window must stay far
// below the linear-scan cost.
func TestWindowComparisonsGrowLogarithmically(t *testing.T) {
	w := NewWindow(0)
	r := rand.New(rand.NewSource(9))
	const n = 1 << 14
	for i := 0; i < n; i++ {
		w.Add(r.Float64())
	}
	before := w.Comparisons()
	const ops = 1000
	for i := 0; i < ops; i++ {
		x := r.Float64()
		w.Add(x)
		w.Remove(x)
	}
	perOp := float64(w.Comparisons()-before) / ops
	// 2 comparisons per level, two traversals per cycle, expected depth
	// ~1.9·log2(n) for a treap: anything near n means the tree degenerated.
	if perOp > 300 {
		t.Fatalf("comparisons per insert+evict = %.1f on W=%d, not logarithmic", perOp, n)
	}
}

func BenchmarkWindowInsertEvictP99(b *testing.B) {
	w := NewWindow(1024)
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = r.Float64() * 100
		w.Add(xs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := xs[i%len(xs)]
		w.Remove(x)
		w.Add(x)
		w.Percentile(99)
	}
}

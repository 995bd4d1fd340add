package stats

import (
	"math"
	"math/rand"
	"testing"
)

// mirrorRemove removes one occurrence of x from xs (test-side reference multiset).
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

// TestWindowMatchesBatchPercentile drives seeded sliding-window streams —
// duplicate-heavy, monotone, NaN-bearing, and one that keeps asking to remove
// values that are not there — through windows from one observation to five
// times the largest the controller holds, and checks that Window.Percentile
// is bit-identical to the batch Percentile over a mirrored slice — the
// invariant the controller's byte-identical-output guarantee rests on.
// Evictions are mostly oldest-first, as the detector's are, with random ones
// mixed in.
func TestWindowMatchesBatchPercentile(t *testing.T) {
	ps := []float64{0, 1, 25, 50, 90, 95, 99, 99.9, 100}
	kinds := []string{"duplicates", "monotone", "nan", "remove-absent"}
	for seed := int64(0); seed < 60; seed++ {
		for wi, size := range []int{1, 2, 64, 1024, 5000} {
			kind := kinds[(int(seed)+wi)%len(kinds)]
			r := rand.New(rand.NewSource(seed))
			w := NewWindow(int(seed) % 3 * size) // no hint, exact, oversized
			var mirror []float64                 // arrival order
			every := size/16 + 1                 // a batch sort per step is too slow at 5000
			for step := 0; step < 2*size+200; step++ {
				// A small discrete grid, so duplicates are common (latencies
				// from an integer-microsecond clock repeat a lot).
				x := math.Floor(r.Float64()*50) / 4
				switch kind {
				case "monotone":
					x = float64(step)
					if seed%2 == 1 {
						x = -x
					}
				case "nan":
					if r.Intn(40) == 0 {
						x = math.NaN()
					}
				case "remove-absent":
					x = r.Float64()
					for _, absent := range []float64{-1, 2, x + 1e-9} {
						if w.Remove(absent) {
							t.Fatalf("%s seed %d W %d step %d: Remove(%v) of an absent value reported present", kind, seed, size, step, absent)
						}
					}
					if w.Remove(math.NaN()) {
						t.Fatalf("%s seed %d W %d step %d: Remove(NaN) reported present", kind, seed, size, step)
					}
				}
				w.Add(x)
				mirror = append(mirror, x)
				if len(mirror) > size {
					i := 0
					if r.Intn(5) == 0 {
						i = r.Intn(len(mirror))
					}
					if !w.Remove(mirror[i]) {
						t.Fatalf("%s seed %d W %d step %d: Remove(%v) reported absent", kind, seed, size, step, mirror[i])
					}
					mirror = append(mirror[:i], mirror[i+1:]...)
				}
				if w.Len() != len(mirror) {
					t.Fatalf("%s seed %d W %d step %d: Len=%d want %d", kind, seed, size, step, w.Len(), len(mirror))
				}
				if step%every != 0 {
					continue
				}
				p := ps[step/every%len(ps)]
				got, want := w.Percentile(p), Percentile(mirror, p)
				if !sameFloat(got, want) {
					t.Fatalf("%s seed %d W %d step %d: P%v = %x, batch %x", kind, seed, size, step, p, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// FuzzWindowOps runs a byte-driven add/remove/percentile sequence against a
// plain slice that is searched linearly and sorted per query. Two bytes are
// one operation: the first picks it, the second the value, from a 16-step
// grid (so removes hit and duplicates pile up) with 0xff standing for NaN.
// Plain `go test` runs the seed corpus.
func FuzzWindowOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 1, 3, 50, 2, 3, 2, 3, 3, 99})               // add, add, P50, remove, remove-absent, P99
	f.Add([]byte{0, 0xff, 0, 2, 3, 0, 2, 0xff, 2, 0xff, 3, 100})      // a NaN poisons, its eviction heals
	f.Add([]byte{0, 7, 0, 7, 0, 7, 2, 7, 3, 25, 2, 7, 2, 7, 2, 7, 3}) // duplicates drained to empty
	f.Add([]byte{1, 15, 1, 14, 1, 13, 1, 12, 3, 1, 2, 15, 3, 99})     // descending inserts land at the front
	f.Fuzz(func(t *testing.T, ops []byte) {
		w := NewWindow(0)
		var ref []float64
		for i := 0; i+1 < len(ops); i += 2 {
			x := float64(ops[i+1]%16) / 2
			if ops[i+1] == 0xff {
				x = math.NaN()
			}
			switch ops[i] % 4 {
			case 0, 1:
				w.Add(x)
				ref = append(ref, x)
			case 2:
				n := len(ref)
				ref = mirrorRemove(ref, x)
				if got, want := w.Remove(x), len(ref) < n; got != want {
					t.Fatalf("op %d: Remove(%v) = %v, reference %v", i/2, x, got, want)
				}
			case 3:
				p := float64(ops[i+1]) / 2 // 0 … 127.5: past 100 clamps
				if got, want := w.Percentile(p), Percentile(ref, p); !sameFloat(got, want) {
					t.Fatalf("op %d: P%v = %x, reference %x", i/2, p, math.Float64bits(got), math.Float64bits(want))
				}
			}
			if w.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, reference %d", i/2, w.Len(), len(ref))
			}
		}
	})
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

// TestWindowSteadyStateAllocFree: once the slice has grown to the
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

package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {-5, 1}, {150, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile must be NaN")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{10, 20}
	if got := Percentile(xs, 50); !almost(got, 15, 1e-12) {
		t.Fatalf("linear interpolation: got %v", got)
	}
	if got := Percentile(xs, 99); !almost(got, 19.9, 1e-9) {
		t.Fatalf("p99 of {10,20}: got %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Fatalf("mean = %v", m)
	}
	if v := Variance(xs); !almost(v, 4, 1e-12) {
		t.Fatalf("variance = %v", v)
	}
	if s := StdDev(xs); !almost(s, 2, 1e-12) {
		t.Fatalf("std = %v", s)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Fatal("empty stats must be NaN")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || !almost(r, 1, 1e-12) {
		t.Fatalf("perfect correlation: r=%v err=%v", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almost(r, -1, 1e-12) {
		t.Fatalf("perfect anticorrelation: r=%v", r)
	}
	konst := []float64{3, 3, 3, 3, 3}
	r, err = Pearson(xs, konst)
	if err != nil || r != 0 {
		t.Fatalf("constant input: r=%v err=%v", r, err)
	}
	if _, err := Pearson(xs, xs[:2]); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := Pearson(nil, nil); err != ErrEmpty {
		t.Fatal("empty must return ErrEmpty")
	}
}

func TestPearsonRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		p, err := Pearson(xs, ys)
		return err == nil && p >= -1.0000001 && p <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMovingAvg(t *testing.T) {
	m := NewMovingAvg(3)
	if !math.IsNaN(m.Value()) {
		t.Fatal("empty moving avg must be NaN")
	}
	if v := m.Add(3); !almost(v, 3, 1e-12) {
		t.Fatalf("after 1 add: %v", v)
	}
	m.Add(6)
	if v := m.Add(9); !almost(v, 6, 1e-12) {
		t.Fatalf("window avg: %v", v)
	}
	if v := m.Add(12); !almost(v, 9, 1e-12) {
		t.Fatalf("rolled avg: %v", v)
	}
}

func TestMovingAvgPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewMovingAvg(0)
}

func TestBootstrapCI(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.NormFloat64()*2 + 100
	}
	lo, hi, err := BootstrapCI(xs, 0.95, 300, r)
	if err != nil {
		t.Fatal(err)
	}
	if lo > hi {
		t.Fatalf("lo %v > hi %v", lo, hi)
	}
	med := Median(xs)
	if med < lo || med > hi {
		t.Fatalf("median %v outside CI [%v, %v]", med, lo, hi)
	}
	if hi-lo > 1 {
		t.Fatalf("CI too wide for n=500: [%v, %v]", lo, hi)
	}
	if _, _, err := BootstrapCI(nil, 0.95, 10, r); err != ErrEmpty {
		t.Fatal("empty bootstrap must error")
	}
	if _, _, err := BootstrapCI(xs, 1.5, 10, r); err == nil {
		t.Fatal("bad confidence must error")
	}
}

func TestAUC(t *testing.T) {
	// Perfect classifier: (0,0) -> (0,1) -> (1,1).
	auc, err := AUC([]float64{0, 0, 1}, []float64{0, 1, 1})
	if err != nil || !almost(auc, 1, 1e-12) {
		t.Fatalf("perfect AUC = %v, err %v", auc, err)
	}
	// Random classifier diagonal.
	auc, _ = AUC([]float64{0, 0.5, 1}, []float64{0, 0.5, 1})
	if !almost(auc, 0.5, 1e-12) {
		t.Fatalf("diagonal AUC = %v", auc)
	}
	if _, err := AUC([]float64{0}, []float64{0}); err == nil {
		t.Fatal("single point must error")
	}
	if _, err := AUC([]float64{0, 1}, []float64{0}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestMedianOddEven(t *testing.T) {
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("odd median = %v", m)
	}
	if m := Median([]float64{1, 2, 3, 4}); !almost(m, 2.5, 1e-12) {
		t.Fatalf("even median = %v", m)
	}
}

// NaN-polluted samples must propagate NaN rather than report a corrupted
// rank statistic: sort.Float64s leaves NaNs at unspecified positions, so
// before this guard a P99 over such a sample was whatever value happened to
// land at the rank.
func TestPercentileNaNPropagates(t *testing.T) {
	nan := math.NaN()
	for _, xs := range [][]float64{
		{nan},
		{1, 2, nan, 4},
		{nan, 1, 2, 3, 4, 5, 6, 7, 8, 9},
	} {
		for _, p := range []float64{0, 50, 99, 99.9, 100} {
			if got := Percentile(xs, p); !math.IsNaN(got) {
				t.Fatalf("Percentile(%v, %v) = %v, want NaN", xs, p, got)
			}
		}
	}
	if got := Median([]float64{1, nan, 3}); !math.IsNaN(got) {
		t.Fatalf("Median with NaN = %v, want NaN", got)
	}
	// Clean samples are unaffected.
	if got := Percentile([]float64{1, 2, 3}, 50); got != 2 {
		t.Fatalf("clean median = %v", got)
	}
}

package svm

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"firm/internal/stats"
)

// linearSet builds a linearly separable 2-D dataset: y = +1 iff x0+x1 > 1.
func linearSet(r *rand.Rand, n int) (xs [][]float64, ys []float64) {
	for i := 0; i < n; i++ {
		x := []float64{r.Float64() * 2, r.Float64() * 2}
		y := -1.0
		if x[0]+x[1] > 1 {
			y = 1.0
		}
		// Margin gap to make it cleanly separable.
		if math.Abs(x[0]+x[1]-1) < 0.15 {
			i--
			continue
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys
}

// ringSet builds a radially separable dataset: +1 inside the unit circle —
// not linearly separable, requires the RBF feature map.
func ringSet(r *rand.Rand, n int) (xs [][]float64, ys []float64) {
	for i := 0; i < n; i++ {
		x := []float64{r.NormFloat64(), r.NormFloat64()}
		d := math.Hypot(x[0], x[1])
		if d > 0.8 && d < 1.2 { // margin gap
			i--
			continue
		}
		y := -1.0
		if d <= 0.8 {
			y = 1.0
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys
}

func TestLinearSeparable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs, ys := linearSet(r, 400)
	cfg := DefaultConfig()
	cfg.Features = 0 // pure linear
	s := New(cfg)
	if err := s.FitBatch(xs, ys, 30, 1); err != nil {
		t.Fatal(err)
	}
	acc, err := s.Accuracy(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.97 {
		t.Fatalf("linear accuracy = %v, want >= 0.97", acc)
	}
}

func TestRBFSolvesNonlinear(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	xs, ys := ringSet(r, 600)

	lin := New(Config{InputDim: 2, LR: 0.05, Reg: 1e-4})
	lin.FitBatch(xs, ys, 30, 1)
	accLin, _ := lin.Accuracy(xs, ys)

	rbf := New(Config{InputDim: 2, Features: 128, Gamma: 1.5, LR: 0.05, Reg: 1e-4, Seed: 3})
	rbf.FitBatch(xs, ys, 30, 1)
	accRBF, _ := rbf.Accuracy(xs, ys)

	if accRBF < 0.9 {
		t.Fatalf("RBF accuracy = %v, want >= 0.9", accRBF)
	}
	if accRBF <= accLin {
		t.Fatalf("RBF (%v) must beat linear (%v) on the ring set", accRBF, accLin)
	}
}

func TestIncrementalLearning(t *testing.T) {
	// Online Fit (one pass, example at a time) should still reach a usable
	// decision boundary — the Extractor trains this way.
	r := rand.New(rand.NewSource(4))
	xs, ys := linearSet(r, 2000)
	s := New(DefaultConfig())
	for i := range xs {
		if err := s.Fit(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	acc, _ := s.Accuracy(xs, ys)
	if acc < 0.9 {
		t.Fatalf("online accuracy = %v", acc)
	}
	if s.seen != uint64(len(xs)) {
		t.Fatalf("seen = %d", s.seen)
	}
}

func TestRFFApproximatesRBFKernel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	gamma := 0.7
	rf := NewRFF(r, 3, 4096, gamma)
	maxErr := 0.0
	for trial := 0; trial < 30; trial++ {
		x := []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		y := []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		zx := rf.MapInto(make([]float64, rf.Dim()), x)
		zy := rf.MapInto(make([]float64, rf.Dim()), y)
		var dot, d2 float64
		for i := range zx {
			dot += zx[i] * zy[i]
		}
		for i := range x {
			d := x[i] - y[i]
			d2 += d * d
		}
		want := math.Exp(-gamma * d2)
		if e := math.Abs(dot - want); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.08 {
		t.Fatalf("RFF kernel approximation error %v too large", maxErr)
	}
}

func TestDecisionErrors(t *testing.T) {
	s := New(DefaultConfig())
	if _, err := s.Decision([]float64{1}); err != ErrBadInput {
		t.Fatal("dimension mismatch must error")
	}
	if err := s.Fit([]float64{1, 2}, 0.5); err == nil {
		t.Fatal("bad label must error")
	}
	if err := s.Fit([]float64{1}, 1); err != ErrBadInput {
		t.Fatal("fit dimension mismatch must error")
	}
	if err := s.FitBatch([][]float64{{1, 2}}, []float64{1, -1}, 1, 1); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := s.Accuracy(nil, nil); err == nil {
		t.Fatal("empty accuracy must error")
	}
}

func TestROCPerfectClassifier(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	xs, ys := linearSet(r, 400)
	s := New(DefaultConfig())
	s.FitBatch(xs, ys, 40, 1)
	ths := make([]float64, 41)
	for i := range ths {
		ths[i] = -2 + float64(i)*0.1
	}
	fpr, tpr, err := s.ROC(xs, ys, ths)
	if err != nil {
		t.Fatal(err)
	}
	auc, err := stats.AUC(fpr, tpr)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.97 {
		t.Fatalf("AUC = %v, want near 1 on separable data", auc)
	}
}

func TestROCEndpoints(t *testing.T) {
	s := New(DefaultConfig())
	fpr, tpr, err := s.ROC([][]float64{{0, 0}, {1, 1}}, []float64{-1, 1}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if fpr[0] != 1 || tpr[0] != 1 || fpr[len(fpr)-1] != 0 || tpr[len(tpr)-1] != 0 {
		t.Fatalf("ROC endpoints missing: %v %v", fpr, tpr)
	}
}

func TestDeterministicTraining(t *testing.T) {
	r1 := rand.New(rand.NewSource(7))
	xs, ys := linearSet(r1, 200)
	a := New(DefaultConfig())
	b := New(DefaultConfig())
	a.FitBatch(xs, ys, 5, 9)
	b.FitBatch(xs, ys, 5, 9)
	for i := 0; i < 20; i++ {
		x := []float64{float64(i) * 0.1, 1 - float64(i)*0.1}
		da, _ := a.Decision(x)
		db, _ := b.Decision(x)
		if da != db {
			t.Fatal("same seed must give identical models")
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(Config{InputDim: 0})
}

func TestNewRFFPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewRFF(rand.New(rand.NewSource(1)), 2, 0, 1)
}

// TestFitWarmAllocFree: Fit projects into the model's own buffer, so a warm
// Fit allocates nothing — Pretrain's thousands of samples cost no garbage —
// and trains the same model, bit for bit, as projecting each sample into
// fresh memory.
func TestFitWarmAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	xs, ys := ringSet(r, 300)
	got, ref := New(DefaultConfig()), New(DefaultConfig())
	for i := range xs {
		if err := got.Fit(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
		mapFit(ref, xs[i], ys[i])
	}
	if math.Float64bits(got.b) != math.Float64bits(ref.b) {
		t.Fatalf("bias %v, fresh-projected fit %v", got.b, ref.b)
	}
	for i := range got.w {
		if math.Float64bits(got.w[i]) != math.Float64bits(ref.w[i]) {
			t.Fatalf("weight %d: %v, fresh-projected fit %v", i, got.w[i], ref.w[i])
		}
	}
	x := xs[0]
	if allocs := testing.AllocsPerRun(100, func() { got.Fit(x, 1) }); allocs != 0 {
		t.Fatalf("warm Fit allocates %v per call, want 0", allocs)
	}
}

// mapFit is Fit with the sample projected into fresh memory: the reference
// Fit's buffer must not change a bit of.
func mapFit(s *SVM, x []float64, y float64) {
	s.seen++
	lr := s.cfg.LR / (1 + s.cfg.Reg*s.cfg.LR*float64(s.seen))
	z := s.rff.MapInto(make([]float64, s.rff.Dim()), x)
	margin := s.b
	for i, zi := range z {
		margin += s.w[i] * zi
	}
	margin *= y
	for i := range s.w {
		s.w[i] -= lr * s.cfg.Reg * s.w[i]
	}
	if margin < 1 {
		for i, zi := range z {
			s.w[i] += lr * y * zi
		}
		s.b += lr * y
	}
}

// TestScorerMatchesDecision: on random inputs, with the RFF map on and off
// and after a few Fit steps, SVM.Decision, Scorer.Decision and every row of
// DecisionBatch return the same margin bit for bit, and all three reject a
// wrong dimension with ErrBadInput.
func TestScorerMatchesDecision(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	linear := DefaultConfig()
	linear.Features = 0
	for _, cfg := range []Config{DefaultConfig(), linear} {
		s := New(cfg)
		xs, ys := ringSet(r, 20)
		for i := range xs {
			if err := s.Fit(xs[i], ys[i]); err != nil {
				t.Fatal(err)
			}
		}
		sc := s.NewScorer()
		const nb = 50
		xb := make([]float64, nb*cfg.InputDim)
		for i := range xb {
			xb[i] = 4*r.Float64() - 2
		}
		out := make([]float64, nb)
		if err := sc.DecisionBatch(xb, nb, out); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nb; i++ {
			x := xb[i*cfg.InputDim : (i+1)*cfg.InputDim]
			d, err := s.Decision(x)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := sc.Decision(x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(d) != math.Float64bits(ds) || math.Float64bits(d) != math.Float64bits(out[i]) {
				t.Fatalf("features %d row %d: SVM.Decision %v, Scorer.Decision %v, DecisionBatch %v", cfg.Features, i, d, ds, out[i])
			}
		}
		bad := make([]float64, cfg.InputDim+1)
		if _, err := s.Decision(bad); err != ErrBadInput {
			t.Fatalf("features %d: SVM.Decision on a wrong dimension: %v", cfg.Features, err)
		}
		if _, err := sc.Decision(bad); err != ErrBadInput {
			t.Fatalf("features %d: Scorer.Decision on a wrong dimension: %v", cfg.Features, err)
		}
		if err := sc.DecisionBatch(bad, 1, out[:1]); err != ErrBadInput {
			t.Fatalf("features %d: DecisionBatch on a wrong dimension: %v", cfg.Features, err)
		}
	}
}

// Accuracy evaluates classification accuracy on a labelled set.
func (s *SVM) Accuracy(xs [][]float64, ys []float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0, errors.New("svm: bad evaluation set")
	}
	correct := 0
	for i := range xs {
		d, err := s.Decision(xs[i])
		if err != nil {
			return 0, err
		}
		if c := d > 0; (c && ys[i] > 0) || (!c && ys[i] < 0) {
			correct++
		}
	}
	return float64(correct) / float64(len(xs)), nil
}

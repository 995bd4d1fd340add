package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestForwardShapes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := New(r, []int{8, 40, 40, 5}, []Activation{ReLU, ReLU, Tanh})
	if n.InputDim() != 8 || n.OutputDim() != 5 {
		t.Fatalf("dims %d/%d", n.InputDim(), n.OutputDim())
	}
	out := n.Forward(make([]float64, 8))
	if len(out) != 5 {
		t.Fatalf("output len %d", len(out))
	}
	for _, y := range out {
		if y < -1 || y > 1 {
			t.Fatalf("tanh output %v out of range", y)
		}
	}
	total := 0
	params, _ := n.Params()
	for _, p := range params {
		total += len(p)
	}
	if total != 8*40+40+40*40+40+40*5+5 {
		t.Fatalf("%d scalar parameters", total)
	}
}

func TestActivations(t *testing.T) {
	if ReLU.apply(-3) != 0 || ReLU.apply(2) != 2 {
		t.Fatal("relu")
	}
	if Linear.apply(7) != 7 {
		t.Fatal("linear")
	}
	if math.Abs(Tanh.apply(0)) > 1e-12 {
		t.Fatal("tanh(0)")
	}
	if ReLU.String() != "relu" || Tanh.String() != "tanh" || Linear.String() != "linear" {
		t.Fatal("names")
	}
}

// Numerical gradient check: backprop gradients must match finite
// differences on a small network.
func TestGradientCheck(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	n := New(r, []int{3, 5, 2}, []Activation{Tanh, Linear})
	x := []float64{0.3, -0.7, 1.1}
	target := []float64{0.5, -0.2}

	loss := func() float64 {
		y := n.Forward(x)
		var l float64
		for i := range y {
			d := y[i] - target[i]
			l += d * d
		}
		return l
	}

	// Analytic gradients.
	n.ZeroGrad()
	y := n.Forward(x)
	gy := make([]float64, len(y))
	for i := range y {
		gy[i] = 2 * (y[i] - target[i])
	}
	n.Backward(gy)
	params, grads := n.Params()

	const eps = 1e-6
	for li, p := range params {
		for j := range p {
			orig := p[j]
			p[j] = orig + eps
			lp := loss()
			p[j] = orig - eps
			lm := loss()
			p[j] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(numeric-grads[li][j]) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("grad mismatch at param[%d][%d]: analytic %v numeric %v",
					li, j, grads[li][j], numeric)
			}
		}
	}
}

// Gradient w.r.t. inputs (needed for DDPG's dQ/da) must also match finite
// differences.
func TestInputGradientCheck(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := New(r, []int{4, 6, 1}, []Activation{ReLU, Linear})
	x := []float64{0.5, -0.3, 0.9, 0.1}

	n.ZeroGrad()
	n.Forward(x)
	gin := n.Backward([]float64{1})

	const eps = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		yp := n.Forward(x)[0]
		x[i] = orig - eps
		ym := n.Forward(x)[0]
		x[i] = orig
		numeric := (yp - ym) / (2 * eps)
		if math.Abs(numeric-gin[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("input grad %d: analytic %v numeric %v", i, gin[i], numeric)
		}
	}
}

func TestRegressionLearning(t *testing.T) {
	// Learn y = sin(x) on [-2, 2] with Adam; MSE must drop below 0.01.
	r := rand.New(rand.NewSource(4))
	n := New(r, []int{1, 32, 32, 1}, []Activation{Tanh, Tanh, Linear})
	opt := NewAdam(n, 1e-2)
	var lastMSE float64
	for epoch := 0; epoch < 400; epoch++ {
		n.ZeroGrad()
		var mse float64
		const batch = 32
		for b := 0; b < batch; b++ {
			x := r.Float64()*4 - 2
			y := n.Forward([]float64{x})[0]
			d := y - math.Sin(x)
			mse += d * d
			n.Backward([]float64{2 * d / batch})
		}
		opt.Step()
		lastMSE = mse / batch
	}
	if lastMSE > 0.01 {
		t.Fatalf("MSE after training = %v", lastMSE)
	}
}

func TestCloneIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	a := New(r, []int{2, 4, 1}, []Activation{ReLU, Linear})
	b := a.Clone()
	x := []float64{0.4, -0.9}
	ya := a.Forward(x)[0]
	yb := b.Forward(x)[0]
	if ya != yb {
		t.Fatal("clone differs")
	}
	params, _ := a.Params()
	params[0][0] += 100
	if a.Forward(x)[0] == b.Forward(x)[0] {
		t.Fatal("clone shares storage")
	}
}

func TestCopyFromAndErrors(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := New(r, []int{2, 4, 1}, []Activation{ReLU, Linear})
	b := New(r, []int{2, 4, 1}, []Activation{ReLU, Linear})
	x := []float64{1, 1}
	if a.Forward(x)[0] == b.Forward(x)[0] {
		t.Fatal("different nets should differ")
	}
	if err := b.CopyFrom(a); err != nil {
		t.Fatal(err)
	}
	if a.Forward(x)[0] != b.Forward(x)[0] {
		t.Fatal("CopyFrom did not copy")
	}
	c := New(r, []int{3, 4, 1}, []Activation{ReLU, Linear})
	if err := c.CopyFrom(a); err == nil {
		t.Fatal("shape mismatch must error")
	}
	d := New(r, []int{2, 4}, []Activation{Linear})
	if err := d.CopyFrom(a); err == nil {
		t.Fatal("layer count mismatch must error")
	}
}

func TestSoftUpdate(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	src := New(r, []int{2, 3, 1}, []Activation{ReLU, Linear})
	tgt := src.Clone()
	params, _ := src.Params()
	params[0][0] += 10 // perturb source
	before := tgtParam(tgt)
	if err := tgt.SoftUpdate(src, 0.1); err != nil {
		t.Fatal(err)
	}
	after := tgtParam(tgt)
	want := 0.1*(before+10) + 0.9*before
	if math.Abs(after-want) > 1e-12 {
		t.Fatalf("soft update: got %v want %v", after, want)
	}
	// tau=1 must copy exactly.
	tgt.SoftUpdate(src, 1.0)
	sp, _ := src.Params()
	tp, _ := tgt.Params()
	if sp[0][0] != tp[0][0] {
		t.Fatal("tau=1 must copy")
	}
}

func tgtParam(n *Net) float64 {
	p, _ := n.Params()
	return p[0][0]
}

func TestMarshalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a := New(r, []int{8, 40, 40, 5}, []Activation{ReLU, ReLU, Tanh})
	data, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 8)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	ya := append([]float64(nil), a.Forward(x)...)
	yb := b.Forward(x)
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatal("round-trip output differs")
		}
	}
	if _, err := Unmarshal([]byte("junk")); err == nil {
		t.Fatal("corrupt data must error")
	}
}

func TestGradClip(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	n := New(r, []int{1, 4, 1}, []Activation{ReLU, Linear})
	opt := NewAdam(n, 1e-3)
	opt.SetGradClip(0.5)
	n.ZeroGrad()
	n.Forward([]float64{1})
	n.Backward([]float64{1e9}) // huge gradient
	before := snapshot(n)
	opt.Step()
	after := snapshot(n)
	var delta float64
	for i := range before {
		d := after[i] - before[i]
		delta += d * d
	}
	// Adam steps are bounded by lr regardless, but clip must avoid NaN/Inf.
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		t.Fatal("clip failed to stabilize")
	}
}

func snapshot(n *Net) []float64 {
	var out []float64
	params, _ := n.Params()
	for _, p := range params {
		out = append(out, p...)
	}
	return out
}

func TestPanicsOnMisuse(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad sizes", func() { New(r, []int{2}, nil) })
	mustPanic("bad acts", func() { New(r, []int{2, 3}, []Activation{ReLU, ReLU}) })
	mustPanic("zero size", func() { New(r, []int{0, 3}, []Activation{ReLU}) })
	n := New(r, []int{2, 3}, []Activation{ReLU})
	mustPanic("bad input", func() { n.Forward([]float64{1}) })
	mustPanic("bad grad", func() { n.Forward([]float64{1, 2}); n.Backward([]float64{1, 2}) })
}

// Property: SoftUpdate with tau in (0,1) keeps parameters between the
// original target and source values.
func TestPropertySoftUpdateBounds(t *testing.T) {
	f := func(seed int64, rawTau float64) bool {
		tau := math.Mod(math.Abs(rawTau), 1)
		if math.IsNaN(tau) {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		src := New(r, []int{2, 3, 1}, []Activation{ReLU, Linear})
		tgt := New(r, []int{2, 3, 1}, []Activation{ReLU, Linear})
		sp, _ := src.Params()
		tp, _ := tgt.Params()
		lo := make([]float64, 0)
		hi := make([]float64, 0)
		for i := range sp {
			for j := range sp[i] {
				lo = append(lo, math.Min(sp[i][j], tp[i][j]))
				hi = append(hi, math.Max(sp[i][j], tp[i][j]))
			}
		}
		tgt.SoftUpdate(src, tau)
		k := 0
		for i := range tp {
			for j := range tp[i] {
				if tp[i][j] < lo[k]-1e-12 || tp[i][j] > hi[k]+1e-12 {
					return false
				}
				k++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

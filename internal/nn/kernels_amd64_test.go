package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// pureGo runs f with the AVX kernels switched off, so an AVX host executes
// the fallback it otherwise never would. Not parallel-safe, like useAVX.
func pureGo(t *testing.T, f func()) {
	t.Helper()
	if !useAVX {
		t.Skip("no AVX on this host: the pure-Go kernels are the only path")
	}
	useAVX = false
	defer func() { useAVX = true }()
	f()
}

// sameBits is float identity: equal bit patterns, or both NaN (which of two
// NaN payloads an x86 add returns depends on operand order, which the
// compiler picks).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func diffBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d]: %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// specials seasons xs with the values the activation epilogues are easy to
// get wrong on: signed zeros always, non-finite ones on request.
func specials(r *rand.Rand, xs []float64, nonFinite bool) {
	vals := []float64{0, math.Copysign(0, -1)}
	if nonFinite {
		vals = append(vals, math.Inf(1), math.Inf(-1), math.NaN())
	}
	for i := 0; i < len(xs)/9+1; i++ {
		xs[r.Intn(len(xs))] = vals[r.Intn(len(vals))]
	}
}

// kernelNet builds a net whose first layer has a neuron with an exactly-zero
// pre-activation (weights and bias +0) and one whose pre-activation is a
// signed zero (weights and bias -0: -0 against positive inputs, +0 once a
// negative input flips a product).
func kernelNet(sizes []int, acts []Activation) *Net {
	n := New(rand.New(rand.NewSource(3)), sizes, acts)
	l := n.layers[0]
	for i := 0; i < l.In; i++ {
		l.W[i] = 0
		l.W[l.In+i] = math.Copysign(0, -1)
	}
	l.B[0], l.B[1] = 0, math.Copysign(0, -1)
	for _, l := range n.layers {
		for i := range l.B {
			if i > 1 {
				l.B[i] = 0.1 * float64(i%5-2)
			}
		}
	}
	return n
}

// batchOut is everything a forward+backward leaves behind; acts holds every
// layer's activations (hidden ones too: a -0 lost there is invisible
// downstream), layer-major.
type batchOut struct{ y, acts, gx, grads []float64 }

func flatGrads(n *Net) []float64 {
	var out []float64
	_, grads := n.Params()
	for _, g := range grads {
		out = append(out, g...)
	}
	return out
}

// TestKernelsAVXPureGoPerSampleBitIdentical pins the three implementations
// of a forward+backward over the same rows — AVX kernels, their pure-Go
// twins, and the per-sample Forward/Backward loop — against each other, bit
// for bit, over the paper's actor and critic shapes and a ragged one, from
// one row to an epoch's worth, on inputs carrying signed zeros, exact-zero
// pre-activations and (second pass) ±Inf and NaN.
func TestKernelsAVXPureGoPerSampleBitIdentical(t *testing.T) {
	shapes := []struct {
		sizes []int
		acts  []Activation
	}{
		{[]int{8, 40, 40, 5}, []Activation{ReLU, ReLU, Tanh}},
		{[]int{13, 40, 40, 1}, []Activation{ReLU, ReLU, Linear}},
		{[]int{7, 11, 9, 4}, []Activation{ReLU, Tanh, Linear}},
	}
	for _, sh := range shapes {
		for _, nb := range []int{1, 3, 64, 3000} {
			for _, nonFinite := range []bool{false, true} {
				name := fmt.Sprintf("%v/nb=%d/nonfinite=%v", sh.sizes, nb, nonFinite)
				in, out := sh.sizes[0], sh.sizes[len(sh.sizes)-1]
				r := rand.New(rand.NewSource(int64(nb)))
				xb, gyb := randBatch(r, nb, in), randBatch(r, nb, out)
				specials(r, xb, nonFinite)
				specials(r, gyb, nonFinite)

				batch := func() batchOut {
					n := kernelNet(sh.sizes, sh.acts)
					// Two rounds without ZeroGrad: the second accumulates on
					// top of the first, the seed-from-destination case.
					var o batchOut
					for round := 0; round < 2; round++ {
						o.y = append([]float64(nil), n.ForwardBatch(xb, nb)...)
						o.acts = o.acts[:0]
						for _, y := range n.bp.y {
							o.acts = append(o.acts, y...)
						}
						o.gx = append([]float64(nil), n.BackwardBatch(gyb, nb)...)
					}
					o.grads = flatGrads(n)
					return o
				}
				avx := batch()
				var gofb batchOut
				pureGo(t, func() { gofb = batch() })

				ref := kernelNet(sh.sizes, sh.acts)
				var per batchOut
				for round := 0; round < 2; round++ {
					per.y, per.gx = per.y[:0], per.gx[:0]
					acts := make([][]float64, len(ref.layers))
					for b := 0; b < nb; b++ {
						per.y = append(per.y, ref.Forward(xb[b*in:(b+1)*in])...)
						for li, l := range ref.layers {
							acts[li] = append(acts[li], l.y...)
						}
						per.gx = append(per.gx, ref.Backward(gyb[b*out:(b+1)*out])...)
					}
					per.acts = per.acts[:0]
					for _, a := range acts {
						per.acts = append(per.acts, a...)
					}
				}
				per.grads = flatGrads(ref)

				diffBits(t, name+" y avx/per-sample", avx.y, per.y)
				diffBits(t, name+" y go/per-sample", gofb.y, per.y)
				diffBits(t, name+" activations avx/per-sample", avx.acts, per.acts)
				diffBits(t, name+" activations go/per-sample", gofb.acts, per.acts)
				diffBits(t, name+" gx avx/per-sample", avx.gx, per.gx)
				diffBits(t, name+" gx go/per-sample", gofb.gx, per.gx)
				diffBits(t, name+" grads avx/per-sample", avx.grads, per.grads)
				diffBits(t, name+" grads go/per-sample", gofb.grads, per.grads)
			}
		}
	}
}

// TestChainKernelMatchesGoTwinOnRaggedShapes drives the chain kernel alone
// across every tile edge: wide groups plus narrow remainders, all eight
// narrow column counts, row counts around the four-row blocking, zero and
// nonzero seed strides, in-place accumulation, with and without ReLU.
func TestChainKernelMatchesGoTwinOnRaggedShapes(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this host")
	}
	r := rand.New(rand.NewSource(5))
	for _, cols := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 39, 40, 41, 45, 48, 83} {
		for _, rows := range []int{1, 2, 3, 4, 5, 8, 11} {
			for _, k := range []int{1, 2, 5, 40} {
				for _, mode := range []int{0, 1, 2} { // seed row / seed matrix / in place
					for _, act := range []bool{false, true} {
						ds, as, ms := cols+r.Intn(3), k+r.Intn(3), cols+r.Intn(3)
						a, m := randBatch(r, rows, as), randBatch(r, k, ms)
						specials(r, a, true)
						specials(r, m, true)
						dstA, dstG := randBatch(r, rows, ds), make([]float64, rows*ds)
						copy(dstG, dstA)
						seedA, seedG, ss := dstA, dstG, ds
						switch mode {
						case 0:
							row := randBatch(r, 1, cols)
							seedA, seedG, ss = row, row, 0
						case 1:
							mat := randBatch(r, rows, cols)
							seedA, seedG, ss = mat, mat, cols
						}
						chain(dstA, seedA, a, m, rows, k, cols, ds, ss, as, ms, act)
						chainGo(dstG, seedG, a, m, rows, k, cols, ds, ss, as, ms, act)
						diffBits(t, fmt.Sprintf("chain rows=%d k=%d cols=%d mode=%d relu=%v", rows, k, cols, mode, act), dstA, dstG)
					}
				}
			}
		}
	}
}

// TestGzKernelMatchesGoTwinOnRaggedShapes does the same for the gz kernel:
// both layouts, every activation, shapes around the 4×4 tile, at a column
// offset of a wider output-major matrix (an epoch worker's view).
func TestGzKernelMatchesGoTwinOnRaggedShapes(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this host")
	}
	r := rand.New(rand.NewSource(6))
	for _, act := range []Activation{Linear, ReLU, Tanh} {
		for _, rows := range []int{1, 3, 4, 5, 8, 63, 64} {
			for _, cols := range []int{1, 3, 4, 5, 8, 11, 40} {
				gy, y := randBatch(r, rows, cols), randBatch(r, rows, cols)
				specials(r, gy, true)
				specials(r, y, true)
				tStride, off := rows+7, 5
				gzA, gzG := make([]float64, rows*cols), make([]float64, rows*cols)
				tA, tG := randBatch(r, cols, tStride), make([]float64, cols*tStride)
				copy(tG, tA)
				gzKernel(gy, y, gzA, tA[off:], rows, cols, tStride, act)
				gzGo(gy, y, gzG, tG[off:], 0, rows, 0, cols, cols, tStride, act)
				name := fmt.Sprintf("gz %v rows=%d cols=%d", act, rows, cols)
				diffBits(t, name+" sample-major", gzA, gzG)
				diffBits(t, name+" output-major", tA, tG)
				for b := 0; b < rows; b++ {
					for o := 0; o < cols; o++ {
						if !sameBits(gzA[b*cols+o], tA[off+o*tStride+b]) {
							t.Fatalf("%s: layouts disagree at row %d col %d", name, b, o)
						}
					}
				}
			}
		}
	}
}

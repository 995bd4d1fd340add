package nn

import (
	"math/rand"
	"testing"
)

// randNet builds a small net with mixed activations for batch-equivalence
// checks.
func randNet(seed int64) *Net {
	r := rand.New(rand.NewSource(seed))
	return New(r, []int{7, 11, 9, 4}, []Activation{ReLU, Tanh, Linear})
}

func randBatch(r *rand.Rand, n, dim int) []float64 {
	xb := make([]float64, n*dim)
	for i := range xb {
		xb[i] = r.NormFloat64()
	}
	return xb
}

// TestForwardBatchBitIdentical pins the batch forward against per-sample
// Forward calls, bit for bit, across batch sizes including 1.
func TestForwardBatchBitIdentical(t *testing.T) {
	for _, nb := range []int{1, 2, 5, 64} {
		net := randNet(1)
		ref := randNet(1)
		r := rand.New(rand.NewSource(7))
		xb := randBatch(r, nb, net.InputDim())
		got := net.ForwardBatch(xb, nb)
		for b := 0; b < nb; b++ {
			want := ref.Forward(xb[b*net.InputDim() : (b+1)*net.InputDim()])
			for o, w := range want {
				if g := got[b*net.OutputDim()+o]; g != w {
					t.Fatalf("nb=%d row %d out %d: batch %v != sample %v", nb, b, o, g, w)
				}
			}
		}
	}
}

// TestBackwardBatchBitIdentical pins batched gradient accumulation — GW, GB
// and the returned input gradients — against the interleaved per-sample
// Forward/Backward loop over the same rows.
func TestBackwardBatchBitIdentical(t *testing.T) {
	for _, nb := range []int{1, 3, 64} {
		net := randNet(2)
		ref := randNet(2)
		r := rand.New(rand.NewSource(9))
		in, out := net.InputDim(), net.OutputDim()
		xb := randBatch(r, nb, in)
		gyb := randBatch(r, nb, out)

		net.ForwardBatch(xb, nb)
		gxb := net.BackwardBatch(gyb, nb)

		refGX := make([]float64, 0, nb*in)
		for b := 0; b < nb; b++ {
			ref.Forward(xb[b*in : (b+1)*in])
			gx := ref.Backward(gyb[b*out : (b+1)*out])
			refGX = append(refGX, gx...)
		}
		for i, g := range gxb {
			if g != refGX[i] {
				t.Fatalf("nb=%d gx[%d]: batch %v != sample %v", nb, i, g, refGX[i])
			}
		}
		_, gradsB := net.Params()
		_, gradsS := ref.Params()
		for li := range gradsB {
			for j := range gradsB[li] {
				if gradsB[li][j] != gradsS[li][j] {
					t.Fatalf("nb=%d grad view %d idx %d: batch %v != sample %v",
						nb, li, j, gradsB[li][j], gradsS[li][j])
				}
			}
		}
	}
}

// TestBackwardBatchVariantsBitIdentical pins the specialized backward
// entry points against full BackwardBatch: BackwardBatchParams accumulates
// bit-identical GW/GB (including accumulation on top of nonzero gradients,
// the PretrainActor chunking case), and BackwardBatchInputGrad returns
// bit-identical input gradients while leaving the parameter gradients
// completely untouched. Shapes cover full and lane-masked kernel tiles.
func TestBackwardBatchVariantsBitIdentical(t *testing.T) {
	shapes := [][]int{{7, 11, 9, 4}, {3, 2, 5, 1}}
	for _, sizes := range shapes {
		acts := make([]Activation, len(sizes)-1)
		for i := range acts {
			acts[i] = []Activation{ReLU, Tanh, Linear}[i%3]
		}
		mk := func() *Net { return New(rand.New(rand.NewSource(21)), sizes, acts) }
		for _, nb := range []int{1, 3, 64} {
			full, par, ing := mk(), mk(), mk()
			r := rand.New(rand.NewSource(23))
			in, out := full.InputDim(), full.OutputDim()
			xb := randBatch(r, nb, in)
			gyb := randBatch(r, nb, out)

			// Two backward rounds without ZeroGrad: round two accumulates on
			// nonzero gradients, so seeded-chain handling is exercised too.
			var gxFull []float64
			for round := 0; round < 2; round++ {
				full.ForwardBatch(xb, nb)
				gxFull = full.BackwardBatch(gyb, nb)
				par.ForwardBatch(xb, nb)
				par.BackwardBatchParams(gyb, nb)
			}
			_, gradsFull := full.Params()
			_, gradsPar := par.Params()
			for li := range gradsFull {
				for j := range gradsFull[li] {
					if gradsPar[li][j] != gradsFull[li][j] {
						t.Fatalf("sizes=%v nb=%d Params grad view %d idx %d: %v != %v",
							sizes, nb, li, j, gradsPar[li][j], gradsFull[li][j])
					}
				}
			}

			const sentinel = 12345.0
			_, gradsIng := ing.Params()
			for _, g := range gradsIng {
				for j := range g {
					g[j] = sentinel
				}
			}
			ing.ForwardBatch(xb, nb)
			gxIn := ing.BackwardBatchInputGrad(gyb, nb)
			if len(gxIn) != nb*in || len(gxFull) != nb*in {
				t.Fatalf("sizes=%v nb=%d: input gradient length %d/%d, want %d", sizes, nb, len(gxIn), len(gxFull), nb*in)
			}
			for i := range gxIn {
				if gxIn[i] != gxFull[i] {
					t.Fatalf("sizes=%v nb=%d InputGrad gx[%d]: %v != %v", sizes, nb, i, gxIn[i], gxFull[i])
				}
			}
			for li, g := range gradsIng {
				for j := range g {
					if g[j] != sentinel {
						t.Fatalf("sizes=%v nb=%d: InputGrad touched grad view %d idx %d", sizes, nb, li, j)
					}
				}
			}
		}
	}
}

// TestEpochWidthInvariant pins Epoch.Accumulate against the interleaved
// per-sample Forward/Backward loop at every worker width (more workers than
// row blocks included), over two passes without ZeroGrad and over row counts
// that end mid-block inside one chunk, fill less than a block, and cross two
// chunk boundaries into a ragged tail: the accumulated GW/GB must not depend
// on how many workers there were, which of them claimed what, or where the
// chunks fall.
func TestEpochWidthInvariant(t *testing.T) {
	for _, rows := range []int{5*blockRows + 17, blockRows - 9, 2*chunkRows + blockRows + 17} {
		r := rand.New(rand.NewSource(41))
		in, out := randNet(6).InputDim(), randNet(6).OutputDim()
		xb, target := randBatch(r, rows, in), randBatch(r, rows, out)

		ref := randNet(6)
		gy := make([]float64, out)
		for pass := 0; pass < 2; pass++ {
			for b := 0; b < rows; b++ {
				y := ref.Forward(xb[b*in : (b+1)*in])
				for j := range gy {
					gy[j] = y[j] - target[b*out+j]
				}
				ref.Backward(gy)
			}
		}
		_, want := ref.Params()

		for _, width := range []int{1, 2, 3, 8, 100} {
			net := randNet(6)
			ep := net.NewEpoch(rows, width)
			copy(ep.Input(), xb)
			for pass := 0; pass < 2; pass++ {
				ep.Accumulate(func(lo, hi int, y, gy []float64) {
					for i := range gy {
						gy[i] = y[i] - target[lo*out+i]
					}
				})
			}
			_, got := net.Params()
			for li := range want {
				for j := range want[li] {
					if got[li][j] != want[li][j] {
						t.Fatalf("rows %d width %d grad view %d idx %d: epoch %v != per-sample %v", rows, width, li, j, got[li][j], want[li][j])
					}
				}
			}
		}
	}
}

// TestForwardBatchSteadyStateAllocFree verifies the pooled-scratch
// discipline: after the first call warms the caches, the batch path
// allocates nothing.
func TestForwardBatchSteadyStateAllocFree(t *testing.T) {
	net := randNet(3)
	r := rand.New(rand.NewSource(11))
	const nb = 64
	xb := randBatch(r, nb, net.InputDim())
	gyb := randBatch(r, nb, net.OutputDim())
	net.ForwardBatch(xb, nb)
	net.BackwardBatch(gyb, nb)
	allocs := testing.AllocsPerRun(20, func() {
		net.ForwardBatch(xb, nb)
		net.BackwardBatch(gyb, nb)
	})
	if allocs != 0 {
		t.Fatalf("steady-state batch fwd+bwd allocates %v per run, want 0", allocs)
	}
}

// TestBatchPanicsOnMisuse pins the batch API's guard rails.
func TestBatchPanicsOnMisuse(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	net := randNet(5)
	r := rand.New(rand.NewSource(17))
	xb := randBatch(r, 4, net.InputDim())
	gyb := randBatch(r, 4, net.OutputDim())
	expectPanic("bad input len", func() { net.ForwardBatch(xb[:1], 4) })
	expectPanic("zero rows", func() { net.ForwardBatch(nil, 0) })
	expectPanic("backward before forward", func() { randNet(5).BackwardBatch(gyb, 4) })
	net.ForwardBatch(xb, 4)
	expectPanic("row count mismatch", func() { net.BackwardBatch(gyb[:2*net.OutputDim()], 2) })
	expectPanic("bad gradient len", func() { net.BackwardBatch(gyb[:3], 4) })
}

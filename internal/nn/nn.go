// Package nn is a minimal, dependency-free neural-network library built for
// the reproduction's DDPG agents (the paper used PyTorch, §3.4): fully
// connected layers with ReLU/Tanh/linear activations, manual backprop, Adam
// and SGD optimizers, soft (Polyak) target-network updates, and gob
// serialization for checkpoints and transfer learning.
package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer nonlinearity.
type Activation int

// Supported activations.
const (
	Linear Activation = iota
	ReLU
	Tanh
)

// String names the activation.
func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	}
	return fmt.Sprintf("activation(%d)", int(a))
}

func (a Activation) apply(z float64) float64 {
	switch a {
	case ReLU:
		if z < 0 {
			return 0
		}
		return z
	case Tanh:
		return math.Tanh(z)
	}
	return z
}

// derivative given the post-activation output y.
func (a Activation) deriv(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	}
	return 1
}

// layer is one dense layer W·x + b followed by an activation.
type layer struct {
	In, Out int
	W       []float64 // Out×In, row-major
	B       []float64
	Act     Activation

	// Gradient accumulators.
	GW []float64
	GB []float64

	// Forward caches (per most recent Forward call) and backward scratch,
	// reused across steps so training loops allocate nothing per call.
	x  []float64 // input
	y  []float64 // post-activation output
	gx []float64 // dL/dx workspace returned by backward

	// Batch-path caches (per most recent forwardBatch call). xb aliases the
	// caller's (or previous layer's) input matrix instead of copying it; yb
	// and gxb are owned scratch reused across steps. bn is the row count of
	// the pending batch, 0 when the last forward was per-sample.
	xb  []float64
	yb  []float64
	gxb []float64
	bn  int

	// AVX kernel scratch: wt is the input-major weight transpose rebuilt
	// each forwardBatch call (weights move between calls); gz / gzT hold
	// the post-activation gradient matrix in sample-major / output-major
	// layout for the backward kernels.
	wt  []float64
	gz  []float64
	gzT []float64
}

func newLayer(r *rand.Rand, in, out int, act Activation) *layer {
	l := &layer{
		In: in, Out: out, Act: act,
		W:  make([]float64, out*in),
		B:  make([]float64, out),
		GW: make([]float64, out*in),
		GB: make([]float64, out),
	}
	// He/Xavier-style fan-in scaling keeps activations well-conditioned.
	scale := math.Sqrt(2 / float64(in))
	if act == Tanh || act == Linear {
		scale = math.Sqrt(1 / float64(in))
	}
	for i := range l.W {
		l.W[i] = r.NormFloat64() * scale
	}
	return l
}

//firmvet:noalloc
func (l *layer) forward(x []float64) []float64 {
	l.bn = 0
	l.x = append(l.x[:0], x...)
	if cap(l.y) < l.Out {
		l.y = make([]float64, l.Out)
	}
	l.y = l.y[:l.Out]
	for o := 0; o < l.Out; o++ {
		z := l.B[o]
		row := l.W[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			z += row[i] * xi
		}
		l.y[o] = l.Act.apply(z)
	}
	return l.y
}

// forwardBatch is forward over nb row-major input rows. Each row's
// pre-activation sum runs in the same index order as forward, so every
// output float is bit-identical to nb per-sample forward calls. The input
// matrix is cached by reference (not copied): it must stay unmodified until
// the matching backwardBatch.
//
//firmvet:noalloc
func (l *layer) forwardBatch(xb []float64, nb int) []float64 {
	l.xb = xb
	l.bn = nb
	if need := nb * l.Out; cap(l.yb) < need {
		l.yb = make([]float64, need)
	}
	yb := l.yb[:nb*l.Out]
	in, out := l.In, l.Out
	// Four output neurons at a time: four independent accumulator chains
	// (each still summing in ascending input order, so every pre-activation
	// is bit-identical to the per-sample loop) hide FP-add latency and share
	// each x load — the batched path's actual speedup over per-sample calls,
	// which serialize on a single accumulator chain. On AVX-capable amd64
	// the same chains run 4-per-ymm-lane in the assembly kernel
	// (kernels_amd64.s) — identical per-chain operation order, so identical
	// bits, ~2.5x the MAC throughput.
	if useAVX && out >= 4 {
		l.forwardBatchMatmul(xb, yb, nb)
		goto activate
	}
	for b := 0; b < nb; b++ {
		// The [:in] reslices pin every row's length to the loop bound so the
		// compiler drops the per-element bounds checks.
		x := xb[b*in : b*in+in][:in]
		yrow := yb[b*out : b*out+out]
		o := 0
		for ; o+4 <= out; o += 4 {
			r0 := l.W[o*in : o*in+in][:in]
			r1 := l.W[(o+1)*in : (o+1)*in+in][:in]
			r2 := l.W[(o+2)*in : (o+2)*in+in][:in]
			r3 := l.W[(o+3)*in : (o+3)*in+in][:in]
			z0, z1, z2, z3 := l.B[o], l.B[o+1], l.B[o+2], l.B[o+3]
			for i := 0; i < in; i++ {
				xi := x[i]
				z0 += r0[i] * xi
				z1 += r1[i] * xi
				z2 += r2[i] * xi
				z3 += r3[i] * xi
			}
			yrow[o], yrow[o+1], yrow[o+2], yrow[o+3] = z0, z1, z2, z3
		}
		for ; o < out; o++ {
			row := l.W[o*in : o*in+in][:in]
			z := l.B[o]
			for i := 0; i < in; i++ {
				z += row[i] * x[i]
			}
			yrow[o] = z
		}
	}
activate:
	switch l.Act {
	case ReLU:
		for i, z := range yb {
			if z < 0 {
				yb[i] = 0
			}
		}
	case Tanh:
		for i, z := range yb {
			yb[i] = math.Tanh(z)
		}
	}
	l.yb = yb
	return yb
}

// backwardBatch is backward over the pending batch. Parameter gradients
// accumulate sample-major — for every accumulator slot, contributions land
// in ascending row order — which is exactly the order nb sequential
// backward calls would produce, so the accumulated GW/GB and the returned
// input gradients match the per-sample loop bit for bit.
//
// The flags gate which outputs are produced, skipping work whose result the
// caller provably discards: needGrow covers the parameter gradients (GW,
// GB), needGx the input gradients. Skipping an output never perturbs the
// other — the two accumulation families share no state.
//
//firmvet:noalloc
func (l *layer) backwardBatch(gyb []float64, nb int, needGrow, needGx bool) []float64 {
	if l.bn != nb {
		panic(fmt.Sprintf("nn: backwardBatch rows %d, want pending batch %d", nb, l.bn))
	}
	in, out := l.In, l.Out
	var gxb []float64
	if needGx {
		if need := nb * in; cap(l.gxb) < need {
			l.gxb = make([]float64, need)
		}
		gxb = l.gxb[:nb*in]
		for i := range gxb {
			gxb[i] = 0
		}
	}
	// Same 4-wide output blocking as forwardBatch. Per-slot accumulation
	// orders are untouched: GB[o] and GW[o][i] still sum over samples in
	// ascending row order (b is the inner-of-block loop), and each input
	// gradient gx[b][i] still receives its per-output contributions in
	// ascending o order (the v += chain below, then block after block) —
	// the exact rounding sequence of the per-sample loop. The [:in]
	// reslices pin row lengths to the loop bound for bounds-check
	// elimination. The AVX path runs the same per-slot chains through the
	// shared dot-chain kernel (see backwardBatchAVX); identical order,
	// identical bits.
	if useAVX && in >= 4 {
		l.backwardBatchAVX(gyb, gxb, nb, needGrow, needGx)
		return gxb
	}
	o := 0
	for ; o+4 <= out; o += 4 {
		r0 := l.W[o*in : o*in+in][:in]
		r1 := l.W[(o+1)*in : (o+1)*in+in][:in]
		r2 := l.W[(o+2)*in : (o+2)*in+in][:in]
		r3 := l.W[(o+3)*in : (o+3)*in+in][:in]
		g0 := l.GW[o*in : o*in+in][:in]
		g1 := l.GW[(o+1)*in : (o+1)*in+in][:in]
		g2 := l.GW[(o+2)*in : (o+2)*in+in][:in]
		g3 := l.GW[(o+3)*in : (o+3)*in+in][:in]
		gb0, gb1, gb2, gb3 := l.GB[o], l.GB[o+1], l.GB[o+2], l.GB[o+3]
		for b := 0; b < nb; b++ {
			base := b * out
			gz0 := gyb[base+o] * l.Act.deriv(l.yb[base+o])
			gz1 := gyb[base+o+1] * l.Act.deriv(l.yb[base+o+1])
			gz2 := gyb[base+o+2] * l.Act.deriv(l.yb[base+o+2])
			gz3 := gyb[base+o+3] * l.Act.deriv(l.yb[base+o+3])
			if needGrow {
				gb0 += gz0
				gb1 += gz1
				gb2 += gz2
				gb3 += gz3
				x := l.xb[b*in : b*in+in][:in]
				for i := 0; i < in; i++ {
					xi := x[i]
					g0[i] += gz0 * xi
					g1[i] += gz1 * xi
					g2[i] += gz2 * xi
					g3[i] += gz3 * xi
				}
			}
			if needGx {
				gx := gxb[b*in : b*in+in][:in]
				for i := 0; i < in; i++ {
					v := gx[i]
					v += gz0 * r0[i]
					v += gz1 * r1[i]
					v += gz2 * r2[i]
					v += gz3 * r3[i]
					gx[i] = v
				}
			}
		}
		if needGrow {
			l.GB[o], l.GB[o+1], l.GB[o+2], l.GB[o+3] = gb0, gb1, gb2, gb3
		}
	}
	for ; o < out; o++ {
		row := l.W[o*in : o*in+in][:in]
		grow := l.GW[o*in : o*in+in][:in]
		gb := l.GB[o]
		for b := 0; b < nb; b++ {
			gz := gyb[b*out+o] * l.Act.deriv(l.yb[b*out+o])
			if needGrow {
				gb += gz
				x := l.xb[b*in : b*in+in][:in]
				for i := 0; i < in; i++ {
					grow[i] += gz * x[i]
				}
			}
			if needGx {
				gx := gxb[b*in : b*in+in][:in]
				for i := 0; i < in; i++ {
					gx[i] += gz * row[i]
				}
			}
		}
		if needGrow {
			l.GB[o] = gb
		}
	}
	return gxb
}

// backward consumes dL/dy and returns dL/dx, accumulating parameter grads.
// The returned slice is the layer's reused workspace.
//
//firmvet:noalloc
func (l *layer) backward(gy []float64) []float64 {
	if cap(l.gx) < l.In {
		l.gx = make([]float64, l.In)
	}
	gx := l.gx[:l.In]
	for i := range gx {
		gx[i] = 0
	}
	for o := 0; o < l.Out; o++ {
		gz := gy[o] * l.Act.deriv(l.y[o])
		l.GB[o] += gz
		row := l.W[o*l.In : (o+1)*l.In]
		grow := l.GW[o*l.In : (o+1)*l.In]
		for i := 0; i < l.In; i++ {
			grow[i] += gz * l.x[i]
			gx[i] += gz * row[i]
		}
	}
	return gx
}

// Net is a feed-forward multilayer perceptron.
type Net struct {
	layers []*layer
}

// New builds an MLP with the given layer sizes and per-layer activations
// (len(acts) == len(sizes)-1). E.g. the paper's actor:
// New(r, []int{8,40,40,5}, []Activation{ReLU, ReLU, Tanh}).
func New(r *rand.Rand, sizes []int, acts []Activation) *Net {
	if len(sizes) < 2 || len(acts) != len(sizes)-1 {
		panic("nn: sizes/activations mismatch")
	}
	n := &Net{}
	for i := 0; i < len(sizes)-1; i++ {
		if sizes[i] <= 0 || sizes[i+1] <= 0 {
			panic("nn: layer sizes must be positive")
		}
		n.layers = append(n.layers, newLayer(r, sizes[i], sizes[i+1], acts[i]))
	}
	return n
}

// InputDim returns the expected input size.
func (n *Net) InputDim() int { return n.layers[0].In }

// OutputDim returns the output size.
func (n *Net) OutputDim() int { return n.layers[len(n.layers)-1].Out }

// Forward computes the network output (cached for a following Backward).
// The returned slice is reused across calls; copy if retained.
func (n *Net) Forward(x []float64) []float64 {
	if len(x) != n.InputDim() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), n.InputDim()))
	}
	h := x
	for _, l := range n.layers {
		h = l.forward(h)
	}
	return h
}

// Backward propagates dL/dOutput through the net, accumulating parameter
// gradients, and returns dL/dInput. Must follow a Forward call. gradOut is
// only read; the returned slice is workspace reused across calls — copy if
// retained (or use BackwardInto to write a caller-owned buffer).
func (n *Net) Backward(gradOut []float64) []float64 {
	if len(gradOut) != n.OutputDim() {
		panic("nn: gradient size mismatch")
	}
	g := gradOut
	for i := len(n.layers) - 1; i >= 0; i-- {
		g = n.layers[i].backward(g)
	}
	return g
}

// BackwardInto is Backward writing dL/dInput into dst (grown as needed and
// returned), so callers that retain the gradient cannot alias the net's
// internal workspace by accident.
func (n *Net) BackwardInto(gradOut, dst []float64) []float64 {
	g := n.Backward(gradOut)
	if cap(dst) < len(g) {
		dst = make([]float64, len(g))
	}
	dst = dst[:len(g)]
	copy(dst, g)
	return dst
}

// ForwardBatch computes the network outputs for nb inputs packed row-major
// in xb (len nb*InputDim) and returns them packed row-major (len
// nb*OutputDim). Every output float is bit-identical to nb Forward calls:
// each row's dot products run in the same index order as the per-sample
// path. The returned slice is reused across calls; xb is cached by
// reference for a following BackwardBatch and must stay unmodified until
// then.
//
//firmvet:noalloc
func (n *Net) ForwardBatch(xb []float64, nb int) []float64 {
	if nb <= 0 || len(xb) != nb*n.InputDim() {
		panic(fmt.Sprintf("nn: batch input size %d, want %d rows of %d", len(xb), nb, n.InputDim()))
	}
	h := xb
	for _, l := range n.layers {
		h = l.forwardBatch(h, nb)
	}
	return h
}

// BackwardBatch propagates nb row-major output gradients (len
// nb*OutputDim) through the net, accumulating parameter gradients in
// sample-major order — bit-identical to nb interleaved Forward/Backward
// calls over the same rows — and returns the row-major input gradients.
// Must follow a ForwardBatch with the same row count. gradOut is only
// read; the returned slice is workspace reused across calls.
func (n *Net) BackwardBatch(gradOut []float64, nb int) []float64 {
	return n.backwardBatchImpl(gradOut, nb, true, true)
}

// BackwardBatchParams is BackwardBatch for callers that only want the
// accumulated parameter gradients (the usual training case): the bottom
// layer's input gradients — pure workspace the optimizer never reads — are
// not computed. GW/GB are bit-identical to BackwardBatch's; the return is
// nil.
func (n *Net) BackwardBatchParams(gradOut []float64, nb int) {
	n.backwardBatchImpl(gradOut, nb, true, false)
}

// BackwardBatchInputGrad is BackwardBatch for callers that only want
// dL/dInput (DDPG's dQ/da policy-gradient extraction): parameter gradients
// are left completely untouched, so no ZeroGrad is needed before or after.
// The returned input gradients are bit-identical to BackwardBatch's.
func (n *Net) BackwardBatchInputGrad(gradOut []float64, nb int) []float64 {
	return n.backwardBatchImpl(gradOut, nb, false, true)
}

//firmvet:noalloc
func (n *Net) backwardBatchImpl(gradOut []float64, nb int, params, input bool) []float64 {
	if nb <= 0 || len(gradOut) != nb*n.OutputDim() {
		panic(fmt.Sprintf("nn: batch gradient size %d, want %d rows of %d", len(gradOut), nb, n.OutputDim()))
	}
	g := gradOut
	for i := len(n.layers) - 1; i >= 0; i-- {
		// Every layer above the bottom needs its input gradients to keep
		// the chain going; the bottom layer's are computed only on request.
		g = n.layers[i].backwardBatch(g, nb, params, i > 0 || input)
	}
	return g
}

// ZeroGrad clears accumulated gradients.
func (n *Net) ZeroGrad() {
	for _, l := range n.layers {
		for i := range l.GW {
			l.GW[i] = 0
		}
		for i := range l.GB {
			l.GB[i] = 0
		}
	}
}

// Params returns flat views over all parameters and their gradients, layer
// by layer (weights then biases). The slices alias network storage.
func (n *Net) Params() (params, grads [][]float64) {
	for _, l := range n.layers {
		params = append(params, l.W, l.B)
		grads = append(grads, l.GW, l.GB)
	}
	return params, grads
}

// Clone returns a deep copy (same architecture and weights, zero grads).
func (n *Net) Clone() *Net {
	c := &Net{}
	for _, l := range n.layers {
		nl := &layer{
			In: l.In, Out: l.Out, Act: l.Act,
			W:  append([]float64(nil), l.W...),
			B:  append([]float64(nil), l.B...),
			GW: make([]float64, len(l.GW)),
			GB: make([]float64, len(l.GB)),
		}
		c.layers = append(c.layers, nl)
	}
	return c
}

// CopyFrom overwrites this net's weights with src's (architectures must
// match). Used for transfer-learning warm starts and target-net init.
func (n *Net) CopyFrom(src *Net) error {
	if len(n.layers) != len(src.layers) {
		return fmt.Errorf("nn: layer count mismatch")
	}
	for i, l := range n.layers {
		sl := src.layers[i]
		if l.In != sl.In || l.Out != sl.Out {
			return fmt.Errorf("nn: layer %d shape mismatch", i)
		}
		copy(l.W, sl.W)
		copy(l.B, sl.B)
	}
	return nil
}

// SoftUpdate performs the Polyak averaging of DDPG target networks
// (Alg. 3 lines 14-15): θ_target ← tau*θ_src + (1-tau)*θ_target.
func (n *Net) SoftUpdate(src *Net, tau float64) error {
	if len(n.layers) != len(src.layers) {
		return fmt.Errorf("nn: layer count mismatch")
	}
	for i, l := range n.layers {
		sl := src.layers[i]
		if len(l.W) != len(sl.W) {
			return fmt.Errorf("nn: layer %d shape mismatch", i)
		}
		for j := range l.W {
			l.W[j] = tau*sl.W[j] + (1-tau)*l.W[j]
		}
		for j := range l.B {
			l.B[j] = tau*sl.B[j] + (1-tau)*l.B[j]
		}
	}
	return nil
}

// netState is the gob wire format.
type netState struct {
	Sizes []int
	Acts  []Activation
	W     [][]float64
	B     [][]float64
}

// Marshal serializes the network (weights + architecture).
func (n *Net) Marshal() ([]byte, error) {
	st := netState{}
	st.Sizes = append(st.Sizes, n.layers[0].In)
	for _, l := range n.layers {
		st.Sizes = append(st.Sizes, l.Out)
		st.Acts = append(st.Acts, l.Act)
		st.W = append(st.W, l.W)
		st.B = append(st.B, l.B)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal reconstructs a network serialized by Marshal.
func Unmarshal(data []byte) (*Net, error) {
	var st netState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, err
	}
	if len(st.Sizes) < 2 || len(st.Acts) != len(st.Sizes)-1 {
		return nil, fmt.Errorf("nn: corrupt state")
	}
	//firmvet:allow seedflow -- init weights are fully overwritten by the snapshot below; the stream is never observed
	n := New(rand.New(rand.NewSource(0)), st.Sizes, st.Acts)
	for i, l := range n.layers {
		if len(st.W[i]) != len(l.W) || len(st.B[i]) != len(l.B) {
			return nil, fmt.Errorf("nn: corrupt layer %d", i)
		}
		copy(l.W, st.W[i])
		copy(l.B, st.B[i])
	}
	return n, nil
}

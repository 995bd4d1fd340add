// Package nn is a minimal, dependency-free neural-network library built for
// the reproduction's DDPG agents (the paper used PyTorch, §3.4): fully
// connected layers with ReLU/Tanh/linear activations, manual backprop, the
// Adam optimizer, soft (Polyak) target-network updates, and gob
// serialization for checkpoints and transfer learning.
//
// # The batch path
//
// Forward/Backward run one sample at a time and are the reference.
// ForwardBatch/BackwardBatch (a minibatch) and Epoch (a whole dataset, a
// cache-sized chunk of rows at a time, optionally on several cores) compute
// the same floats, bit for bit, out of three kernels (kernels.go; AVX in
// kernels_amd64.s, pure Go elsewhere):
//
//   - chain — dst[r][c] = act(seed[r][c] + Σ_j a[r][j]·m[j][c]): the forward
//     product, the input-gradient product and the weight-gradient product
//     are all this shape, with act the identity or ReLU applied before the
//     store;
//   - gz — dL/dz = dL/dy · act'(y), written sample-major and output-major
//     in one sweep, the two layouts the gradient chains read;
//   - sumRows — the bias-gradient chains.
//
// What keeps them identical to the per-sample loop is a contract, not a
// tolerance:
//
//   - One output, one chain: every output element is a single accumulator
//     taking one product per step in the per-sample loop's index order.
//     Blocking and vector lanes choose how many chains run side by side,
//     never the order within one.
//   - Seed from the destination: an accumulating chain starts from what is
//     already in GW/GB, so gradients summed over several calls (or blocks,
//     or an Epoch's chunks) equal one pass over the concatenated rows.
//   - Multiply, then add, two roundings — never a fused multiply-add.
//   - ReLU turns only z < 0 into +0: -0 and NaN pass through. Its
//     derivative is a 0/1 factor multiplied into the gradient, not a select,
//     so signs of zero and NaNs come out as the per-sample code makes them.
//   - Ownership, not reduction: when an Epoch runs on several workers, rows
//     are owned for the forward/backward sweeps and output rows for gradient
//     accumulation, one chunk's phases after the other; no float is ever the
//     sum of two workers' partial sums, so the result is the same at any
//     width.
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

	// Batch-path working set (batch.go), grown on first use and reused.
	bp pass
	bs blockScratch
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
	n.bp.rows = 0 // a pending batch forward no longer matches the caches
	h := x
	for _, l := range n.layers {
		h = l.forward(h)
	}
	return h
}

// Backward propagates dL/dOutput through the net, accumulating parameter
// gradients, and returns dL/dInput. Must follow a Forward call. gradOut is
// only read; the returned slice is workspace reused across calls — copy if
// retained.
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
	// A decodable payload can still describe no network. Check everything
	// New would panic on or the copy below would index past, and hold the
	// shapes to the payload's own W/B lengths so a hostile Sizes cannot make
	// New allocate more than the payload carried.
	nl := len(st.Sizes) - 1
	if nl < 1 || len(st.Acts) != nl || len(st.W) != nl || len(st.B) != nl {
		return nil, fmt.Errorf("nn: corrupt state")
	}
	for i := 0; i < nl; i++ {
		in, out := st.Sizes[i], st.Sizes[i+1]
		if in <= 0 || out <= 0 {
			return nil, fmt.Errorf("nn: corrupt state")
		}
		if len(st.B[i]) != out || in > len(st.W[i]) || len(st.W[i]) != in*out {
			return nil, fmt.Errorf("nn: corrupt layer %d", i)
		}
	}
	//firmvet:allow seedflow -- init weights are fully overwritten by the snapshot below; the stream is never observed
	n := New(rand.New(rand.NewSource(0)), st.Sizes, st.Acts)
	for i, l := range n.layers {
		copy(l.W, st.W[i])
		copy(l.B, st.B[i])
	}
	return n, nil
}

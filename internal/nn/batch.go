package nn

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// blockRows is how many rows the backward sweep carries at a time: the
// sample-major gz and gx it chains through live only for one block, so a
// 3,000-row epoch keeps them cache-sized instead of dataset-sized.
const blockRows = 64

// pass is the batch path's working set for one net over `rows` rows: what a
// forward sweep leaves behind for the backward sweep, and what the backward
// sweep leaves behind for gradient accumulation. Net owns one for
// ForwardBatch/BackwardBatch; an Epoch owns one chunk-sized set of matrices
// and views it as one pass per chunk.
type pass struct {
	rows int         // rows of the pending forward; 0 = none
	x    []float64   // layer-0 input, rows×in — the caller's matrix, by reference
	wt   [][]float64 // per layer: Wᵀ, in×out, refreshed by loadWeights
	y    [][]float64 // per layer: post-activation outputs, rows×out
	gzT  [][]float64 // per layer: dL/dz, out×rows (output-major)
	gx0  []float64   // dL/dx of layer 0, rows×in — only when asked for
	zero []float64   // the all-zero seed row of the input-gradient chains
}

// blockScratch is one worker's slice of the backward sweep: dL/dz and dL/dx
// of the layer in hand for one block of rows, sample-major.
type blockScratch struct {
	gz, gx []float64
}

// size readies the forward matrices for rows rows.
//
//firmvet:noalloc
func (p *pass) size(n *Net, rows int) {
	if cap(p.y) < len(n.layers) {
		p.wt = make([][]float64, len(n.layers))
		p.y = make([][]float64, len(n.layers))
		p.gzT = make([][]float64, len(n.layers))
		for li, l := range n.layers {
			p.wt[li] = make([]float64, l.In*l.Out)
		}
		p.zero = make([]float64, n.maxWidth())
	}
	for li, l := range n.layers {
		if cap(p.y[li]) < rows*l.Out {
			p.y[li] = make([]float64, rows*l.Out)
		}
		p.y[li] = p.y[li][:rows*l.Out]
	}
}

// sizeBackward readies the backward matrices for rows rows.
//
//firmvet:noalloc
func (p *pass) sizeBackward(n *Net, rows int, inputGrad bool) {
	for li, l := range n.layers {
		if cap(p.gzT[li]) < rows*l.Out {
			p.gzT[li] = make([]float64, rows*l.Out)
		}
		p.gzT[li] = p.gzT[li][:rows*l.Out]
	}
	if in := n.InputDim(); inputGrad {
		if cap(p.gx0) < rows*in {
			p.gx0 = make([]float64, rows*in)
		}
		p.gx0 = p.gx0[:rows*in]
	}
}

// size readies one worker's block scratch for n.
//
//firmvet:noalloc
func (s *blockScratch) size(n *Net) {
	if need := blockRows * n.maxWidth(); cap(s.gz) < need {
		s.gz = make([]float64, need)
		s.gx = make([]float64, need)
	}
}

func (n *Net) maxWidth() int {
	w := n.InputDim()
	for _, l := range n.layers {
		w = max(w, l.Out)
	}
	return w
}

// loadWeights refreshes the transposed weights the forward chains read.
// Weights move under the optimizer between calls, so this runs once per
// ForwardBatch and once per Epoch.Accumulate — never per block.
//
//firmvet:noalloc
func (n *Net) loadWeights(p *pass) {
	for li, l := range n.layers {
		in, out, wt := l.In, l.Out, p.wt[li]
		for o := 0; o < out; o++ {
			for i, w := range l.W[o*in : o*in+in] {
				wt[i*out+o] = w
			}
		}
	}
}

// input returns the matrix layer li reads: the pass input or the layer
// below's outputs. Its row stride is the layer's In.
func (p *pass) input(li int) []float64 {
	if li == 0 {
		return p.x
	}
	return p.y[li-1]
}

// forwardRows runs rows [lo,hi) up the net. Row-local: it reads and writes
// only those rows of p, so disjoint ranges may run concurrently.
//
//firmvet:noalloc
func (n *Net) forwardRows(p *pass, lo, hi int) {
	for li, l := range n.layers {
		in, out := l.In, l.Out
		y := p.y[li][lo*out : hi*out]
		chain(y, l.B, p.input(li)[lo*in:hi*in], p.wt[li], hi-lo, in, out, out, 0, in, out, l.Act == ReLU)
		if l.Act == Tanh {
			for i, z := range y {
				y[i] = math.Tanh(z)
			}
		}
	}
}

// backwardRows runs the output gradients gy of rows [lo,hi) (at most
// blockRows of them, dense, hi-lo rows × OutputDim) down the net: per layer
// gz = gy·act'(y) into s and into p.gzT's columns [lo,hi), then the input
// gradients that are the layer below's gy. Row-local like forwardRows; the
// bottom layer's input gradients are produced (into p.gx0) only on request.
//
//firmvet:noalloc
func (n *Net) backwardRows(p *pass, s *blockScratch, gy []float64, lo, hi int, inputGrad bool) {
	nb := hi - lo
	for li := len(n.layers) - 1; li >= 0; li-- {
		l := n.layers[li]
		in, out := l.In, l.Out
		gz := s.gz[:nb*out]
		gzKernel(gy, p.y[li][lo*out:hi*out], gz, p.gzT[li][lo:], nb, out, p.rows, l.Act)
		if li == 0 && !inputGrad {
			return
		}
		gx := s.gx[:nb*in]
		if li == 0 {
			gx = p.gx0[lo*in : hi*in]
		}
		chain(gx, p.zero, gz, l.W, nb, out, in, in, 0, out, in, false)
		gy = gx
	}
}

// accumulate adds all p.rows rows' contribution to the parameter gradients
// of layer li's output rows [oLo,oHi): every GW[o][i] and GB[o] chain walks
// the samples in ascending row order on top of what is already there.
// Output-row-local: it writes nothing outside those rows of GW and GB.
//
//firmvet:noalloc
func (n *Net) accumulate(p *pass, li, oLo, oHi int) {
	if oLo >= oHi {
		return
	}
	l := n.layers[li]
	in := l.In
	gw := l.GW[oLo*in : oHi*in]
	gzT := p.gzT[li][oLo*p.rows : oHi*p.rows]
	chain(gw, gw, gzT, p.input(li), oHi-oLo, p.rows, in, in, in, p.rows, in, false)
	sumRows(l.GB[oLo:oHi], gzT, oHi-oLo, p.rows, p.rows)
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
	p := &n.bp
	p.size(n, nb)
	p.x, p.rows = xb, nb
	n.loadWeights(p)
	n.forwardRows(p, 0, nb)
	return p.y[len(n.layers)-1]
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
	od := n.OutputDim()
	if nb <= 0 || len(gradOut) != nb*od {
		panic(fmt.Sprintf("nn: batch gradient size %d, want %d rows of %d", len(gradOut), nb, od))
	}
	p := &n.bp
	if p.rows != nb {
		panic(fmt.Sprintf("nn: BackwardBatch rows %d, want pending batch %d", nb, p.rows))
	}
	p.sizeBackward(n, nb, input)
	n.bs.size(n)
	for lo := 0; lo < nb; lo += blockRows {
		hi := min(lo+blockRows, nb)
		n.backwardRows(p, &n.bs, gradOut[lo*od:hi*od], lo, hi, input)
	}
	if params {
		for li, l := range n.layers {
			n.accumulate(p, li, 0, l.Out)
		}
	}
	if !input {
		return nil
	}
	return p.gx0
}

// chunkRows is how many dataset rows an Epoch carries through its sweeps at
// a time. A chunk's forward outputs and output-major gradients are the
// Epoch's whole working set besides the input matrix: for the Table 4 actor
// (85 outputs a row) that is 512 × 85 × 2 doubles, 0.7 MB, where the
// 3,000-row behaviour-cloning set used to hold 4.1 MB for the call — small
// enough to stay in one core's 2 MB L2 while the next phase reads it back.
// Measured on the clone experiments.Train runs (200 epochs × 3,000 rows,
// medians of 8 alternating runs on a 2-vCPU Xeon), unchunked → 512 rows:
// one worker 290 → 277 ms, two workers 186 → 188 ms. 256-row chunks took
// 271 and 201 ms (twice the barriers), 1,024-row ones 279 and 185 ms for
// twice the bytes.
const chunkRows = 8 * blockRows

// Epoch accumulates one loss's parameter gradients over a whole dataset,
// chunkRows rows at a time, split across workers by ownership rather than
// reduction. Each chunk is two phases: the forward and backward sweeps,
// owned by sample row (a block of rows at a time), then gradient
// accumulation over the chunk, owned by output row. No two workers ever add
// into the same float, and every GW/GB chain takes the chunks in dataset
// order on top of what the last one left (seed from the destination), so
// GW/GB are byte-identical at any width and to one pass over all rows, with
// no locks or atomics on the data. Within a phase, which worker owns which
// unit is decided as they go (one claim counter a phase): every unit is
// computed by exactly one worker in a fixed internal order, so the
// assignment cannot reach the result, and a worker that loses its core for
// a while costs one unit rather than stalling half the phase. Only the
// input matrix is dataset-sized; the chunk matrices are reused chunk after
// chunk, and all of it belongs to the Epoch, not the net.
type Epoch struct {
	n      *Net
	x      []float64 // the dataset input, rows×InputDim
	chunks []pass    // per chunk: its rows of x over the shared chunk matrices
	width  int
	bs     []blockScratch                    // per worker
	gy     [][]float64                       // per worker: one block of loss gradients
	units  []gradUnit                        // an accumulation phase's work list
	loss   func(lo, hi int, y, gy []float64) // Accumulate's, for the call
	team   team
}

// gradUnit is one claim of an accumulation phase: output rows [lo,hi) of
// one layer.
type gradUnit struct{ layer, lo, hi int }

// team is how the workers of one Accumulate move through its phases
// together: phase ph's units are claimed by counting claim[ph] up, a worker
// that finds none left adds the units it ran to done[ph], and a worker
// leaves phase ph only once done[ph] is full — the barrier that keeps a
// chunk's accumulation off rows still being swept and the next chunk's
// sweep off matrices still being read. Nobody checks in: a worker that gets
// no CPU claims nothing and delays no one. A phase's last unit is tens of
// microseconds, so a waiter spins about that long before it parks, as sim's
// sharded rendezvous does.
type team struct {
	claim, done []atomic.Int32 // per phase
	spin        int
	mu          sync.Mutex
	wake        sync.Cond
}

// spinLoads is how many times a waiting worker polls before it parks:
// ≈ 24 µs on a 2-vCPU Xeon, about one 64-row block of the Table 4 actor —
// the longest a peer with a CPU of its own keeps a phase open. At 1 << 14
// (≈ 6 µs) waiters parked, and perf's rl-pretrain at two workers took
// 4.8 ms against 4.3; 1 << 17 and 1 << 18 left chunkRows' clone as it was.
const spinLoads = 1 << 16

// await returns once v reaches n.
func (t *team) await(v *atomic.Int32, n int32) {
	for i := 0; i < t.spin; i++ {
		if v.Load() >= n {
			return
		}
	}
	t.mu.Lock()
	for v.Load() < n {
		t.wake.Wait()
	}
	t.mu.Unlock()
}

// post wakes whoever parked before the caller's last count.
func (t *team) post() {
	t.mu.Lock()
	t.wake.Broadcast()
	t.mu.Unlock()
}

// NewEpoch sizes an epoch over rows samples for width workers (clamped to
// [1, number of row blocks]).
func (n *Net) NewEpoch(rows, width int) *Epoch {
	if rows <= 0 {
		panic("nn: epoch needs at least one row")
	}
	width = max(1, min(width, (rows+blockRows-1)/blockRows))
	in := n.InputDim()
	e := &Epoch{n: n, x: make([]float64, rows*in), width: width,
		bs: make([]blockScratch, width), gy: make([][]float64, width)}
	var p pass
	p.size(n, min(rows, chunkRows))
	p.sizeBackward(n, min(rows, chunkRows), false)
	for lo := 0; lo < rows; lo += chunkRows {
		c := p
		c.rows = min(chunkRows, rows-lo)
		c.x = e.x[lo*in : (lo+c.rows)*in]
		e.chunks = append(e.chunks, c)
	}
	e.team.claim = make([]atomic.Int32, 2*len(e.chunks))
	e.team.done = make([]atomic.Int32, 2*len(e.chunks))
	e.team.wake.L = &e.team.mu
	//firmvet:allow nondeterm -- decides only whether a waiter spins before it parks; no result depends on it
	if width <= runtime.GOMAXPROCS(0) {
		e.team.spin = spinLoads // a CPU per worker; spinning for a peer that has none only delays it
	}
	for w := range e.bs {
		e.bs[w].size(n)
		e.gy[w] = make([]float64, blockRows*n.OutputDim())
	}
	// Eight output rows a claim, widest layers first so the small claims
	// are the ones left to even out the finish. Each claim is an atomic
	// add both workers contend for, and a chunk's accumulation is short:
	// at four rows a claim (the narrow tile's depth; 132 claims an epoch
	// instead of 66) the clone above took 196 ms at two workers where
	// eight took 191 and the unchunked epoch 190; sixteen was no faster.
	claims := 0
	for _, l := range n.layers {
		claims += (l.Out + 7) / 8
	}
	e.units = make([]gradUnit, 0, claims)
	for li := len(n.layers) - 1; li >= 0; li-- {
		for o := 0; o < n.layers[li].Out; o += 8 {
			e.units = append(e.units, gradUnit{li, o, min(o+8, n.layers[li].Out)})
		}
	}
	return e
}

// Input returns the rows×InputDim row-major dataset matrix; fill it (in the
// order gradients should accumulate) before Accumulate.
func (e *Epoch) Input() []float64 { return e.x }

// Accumulate adds dLoss/dθ over all rows to the net's gradients (on top of
// what is there: ZeroGrad first for a fresh epoch) — bit-identical to
// interleaved Forward/Backward calls over the rows in order. loss receives
// the outputs y of rows [lo,hi) and fills their output gradients gy (both
// dense, hi-lo rows × OutputDim); it runs on the worker that owns those
// rows, concurrently with other row ranges of the same chunk.
//
// One team of width workers — the caller and width-1 goroutines — runs
// every phase of the call.
func (e *Epoch) Accumulate(loss func(lo, hi int, y, gy []float64)) {
	e.n.loadWeights(&e.chunks[0])
	e.loss = loss
	t := &e.team
	for ph := range t.claim {
		t.claim[ph].Store(0)
		t.done[ph].Store(0)
	}
	var wg sync.WaitGroup
	for w := 1; w < e.width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.work(w)
		}()
	}
	e.work(0)
	wg.Wait()
	e.loss = nil
}

// work is worker w's walk through the phases: claim and run units of each
// until none is left, count them in, then wait for the phase's last unit to
// finish.
//
//firmvet:noalloc
func (e *Epoch) work(w int) {
	t := &e.team
	for ph := range t.claim {
		n := int32(len(e.units))
		if ph%2 == 0 {
			n = int32((e.chunks[ph/2].rows + blockRows - 1) / blockRows)
		}
		mine := int32(0)
		for i := t.claim[ph].Add(1) - 1; i < n; i = t.claim[ph].Add(1) - 1 {
			e.unit(w, ph, int(i))
			mine++
		}
		if mine > 0 && t.done[ph].Add(mine) == n && e.width > 1 {
			t.post()
		}
		t.await(&t.done[ph], n)
	}
}

// unit runs unit i of phase ph on worker w: in an even phase row block i of
// the chunk — forward, loss, backward — and in an odd phase accumulation
// claim i over the chunk's rows.
//
//firmvet:noalloc
func (e *Epoch) unit(w, ph, i int) {
	n, c := e.n, ph/2
	p := &e.chunks[c]
	if ph%2 == 1 {
		u := e.units[i]
		n.accumulate(p, u.layer, u.lo, u.hi)
		return
	}
	od := n.OutputDim()
	lo := i * blockRows
	hi := min(lo+blockRows, p.rows)
	n.forwardRows(p, lo, hi)
	gy := e.gy[w][:(hi-lo)*od]
	base := c * chunkRows
	e.loss(base+lo, base+hi, p.y[len(n.layers)-1][lo*od:hi*od], gy)
	n.backwardRows(p, &e.bs[w], gy, lo, hi, false)
}

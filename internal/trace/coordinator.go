package trace

import (
	"math/bits"

	"firm/internal/sim"
)

// Coordinator is FIRM's Tracing Coordinator (§3.1, ① in Fig. 6): a
// data-processing component that collects spans of different requests from
// each tracing agent, combines them per trace, and hands completed execution
// history graphs to downstream sinks (the graph store and the Extractor).
//
// The paper measures <0.2% throughput and <0.11% latency overhead for
// tracing; in the simulation tracing is free, so no overhead is modelled.
// What it costs the simulator is kept to one pass: Emit encodes each span
// straight into its trace's packed stream (pack.go), in a buffer the
// coordinator lends from free lists by size class, and a warm request
// allocates nothing.
type Coordinator struct {
	eng      *sim.Engine
	sink     Sink
	recycle  Recycler // sink, when it gives released traces back
	names    Names
	pending  int
	nextID   TraceID
	nextSpan SpanID
	// bufs holds the packed buffers no trace owns, for StartTrace and Emit
	// to lend again: bufs[k] those of capacity in [2^k, 2^(k+1)).
	bufs [][][]byte
	// lasts holds the spans pending traces encode against (Trace.last),
	// free to lend again: at most as many as were ever pending at once.
	lasts []*Span

	// Collected counts finished traces; SpansSeen counts raw spans.
	Collected uint64
	SpansSeen uint64
}

// bytesPerSpan is the packed size StartTrace budgets per expected span
// when it picks a trace's buffer. A sweep measured benchmark alloc_mb
// (mesh-1k / firm-loop, seed 42) at 6.59 / 6.75 MB for 8 B, 6.57 / 6.66
// for 10 B, 6.55 / 7.07 for 12 B and 7.40 / 7.07 for 16 B.
const bytesPerSpan = 10

// NewCoordinator creates a coordinator forwarding completed traces to sink.
// names — the testbed's cluster — is stamped on every trace.
func NewCoordinator(eng *sim.Engine, sink Sink, names Names) *Coordinator {
	r, _ := sink.(Recycler)
	return &Coordinator{eng: eng, sink: sink, recycle: r, names: names}
}

// Reset returns the coordinator to what NewCoordinator built: trace and span
// IDs start again at 1, and no trace is pending or counted. Traces still
// pending are abandoned; the free buffers and spans it holds are kept.
func (c *Coordinator) Reset() {
	*c = Coordinator{eng: c.eng, sink: c.sink, recycle: c.recycle, names: c.names, bufs: c.bufs, lasts: c.lasts}
}

// StartTrace starts the trace of a new user request of the given type; the
// caller holds it until Finish and emits the request's spans into it. The
// trace is one the sink released (Recycler) when the sink has one, a new
// one otherwise; the released trace's buffer goes back to the free lists.
// spanHint is the number of spans the request is expected to emit (its
// endpoint's call-tree size): the trace's buffer holds that many at
// bytesPerSpan each, and one more span, before Emit has to move it to a
// larger one. A request that retries may exceed it.
func (c *Coordinator) StartTrace(reqType string, spanHint int) *Trace {
	c.nextID++
	c.pending++
	var t *Trace
	if c.recycle != nil {
		t = c.recycle.Reclaim()
	}
	if t == nil {
		t = new(Trace)
	}
	c.putBuf(t.packed)
	*t = Trace{ID: c.nextID, Type: reqType, Names: c.names, Start: c.eng.Now(),
		packed: c.buf(spanHint*bytesPerSpan + maxSpanBytes), last: c.lastSpan()}
	return t
}

// NewSpanID allocates a process-wide unique span id. It panics once the
// 32-bit counter is exhausted rather than wrap to 0, the root's Parent.
func (c *Coordinator) NewSpanID() SpanID {
	c.nextSpan++
	if c.nextSpan == 0 {
		panic("trace: span IDs exhausted (2^32-1 spans)")
	}
	return c.nextSpan
}

// Emit records a span produced by a tracing agent into its pending trace:
// it is encoded onto the trace's packed stream, as differences from the
// span emitted before it.
//
//firmvet:noalloc
func (c *Coordinator) Emit(t *Trace, s Span) {
	c.SpansSeen++
	if cap(t.packed)-len(t.packed) < maxSpanBytes {
		c.grow(t)
	}
	// Reslicing t.packed onto itself stores only its length.
	t.packed = t.packed[:encodeSpan(t.packed[:cap(t.packed)], len(t.packed), t.last, &s)]
	t.n++
	*t.last = s
}

// grow moves t's stream to a buffer of at least twice its capacity, from
// the free lists, and gives the old buffer back.
func (c *Coordinator) grow(t *Trace) {
	b := append(c.buf(max(2*cap(t.packed), len(t.packed)+maxSpanBytes)), t.packed...)
	c.putBuf(t.packed)
	t.packed = b
}

// buf lends an empty buffer of capacity at least need: a free one of need's
// size class or the class above, else a new one of the power of two at or
// above need.
func (c *Coordinator) buf(need int) []byte {
	k := bits.Len(uint(need - 1))
	for j := k; j <= k+1 && j < len(c.bufs); j++ {
		if n := len(c.bufs[j]); n > 0 {
			b := c.bufs[j][n-1]
			c.bufs[j][n-1] = nil
			c.bufs[j] = c.bufs[j][:n-1]
			return b
		}
	}
	return make([]byte, 0, 1<<k)
}

// putBuf puts b, which no trace owns any more, on the free list of its
// size class.
func (c *Coordinator) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	k := bits.Len(uint(cap(b))) - 1
	for len(c.bufs) <= k {
		c.bufs = append(c.bufs, nil)
	}
	c.bufs[k] = append(c.bufs[k], b[:0])
}

// lastSpan lends a zeroed span for a pending trace to encode against.
func (c *Coordinator) lastSpan() *Span {
	n := len(c.lasts)
	if n == 0 {
		return new(Span)
	}
	s := c.lasts[n-1]
	c.lasts = c.lasts[:n-1]
	*s = Span{}
	return s
}

// Finish seals the trace: the request completed (or was dropped) and every
// agent has reported. Its spans are already packed; Finish stamps its end,
// takes back the span it encoded against, and pushes the assembled
// execution history graph to the sink; the trace stops counting as pending.
// Each trace is finished once.
func (c *Coordinator) Finish(t *Trace, dropped bool) {
	c.pending--
	t.End = c.eng.Now()
	t.Dropped = dropped
	c.lasts = append(c.lasts, t.last)
	t.last = nil
	c.Collected++
	if c.sink != nil {
		c.sink.Consume(t)
	}
}

// PendingCount reports how many traces are still being assembled.
func (c *Coordinator) PendingCount() int { return c.pending }

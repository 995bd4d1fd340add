package trace

import (
	"math"
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
// What it costs the simulator is kept to one pass and to the bytes a trace
// needs: Emit encodes each span straight into its pending trace's packed
// stream (pack.go), in a scratch buffer the coordinator lends from free
// lists by size class, and, when the sink gives traces back (Recycler),
// Finish copies the stream into an arena of fixed-size chunks, packed back
// to back, and takes the scratch back. A retained trace then holds exactly
// its stream's bytes, and a warm request allocates nothing. A sink that
// gives nothing back keeps each trace's scratch buffer, which the garbage
// collector frees once the sink drops the trace: the arena would hold it
// for the coordinator's life.
//
// A chunk is reused only once every trace copied into it has come back, so
// how fast chunks recycle follows the order the sink gives traces back: a
// sink that hands back its oldest released trace first frees the oldest
// chunks first, while one that hands back its newest first leaves old
// traces unclaimed, each pinning a chunk that is otherwise empty.
type Coordinator struct {
	eng      *sim.Engine
	sink     Sink
	recycle  Recycler // sink, when it gives released traces back
	names    Names
	pending  int
	nextID   TraceID
	nextSpan SpanID
	// bufs holds the scratch buffers no trace owns, for Emit to lend again:
	// bufs[k] those of capacity in [2^k, 2^(k+1)).
	bufs [][][]byte
	// lasts holds the spans pending traces encode against (Trace.last),
	// free to lend again: at most as many as were ever pending at once.
	lasts []*Span
	// arena holds every chunk Finish has copied streams into; Trace.chunk
	// and cur name one by index + 1. cur is the chunk being filled, and
	// spare holds the chunks every trace has come back from.
	arena []chunk
	cur   uint16
	spare []uint16

	// Collected counts finished traces; SpansSeen counts raw spans.
	Collected uint64
	SpansSeen uint64
}

// chunk is one of the arena's fixed-size byte chunks.
type chunk struct {
	buf  []byte // the streams copied into it, back to back
	live int    // the traces in buf that have not come back
}

// Arena sizing: chunkBytes per chunk, scratchBytes for a pending trace's
// first scratch buffer, and copyLimit the longest stream Finish copies into
// the arena; a longer one keeps its scratch buffer, so no chunk ends more
// than an eighth empty. At most 65,535 chunks (4 GiB of streams) are
// retained at once.
const (
	chunkBytes   = 64 << 10
	scratchBytes = 128
	copyLimit    = chunkBytes / 8
)

// NewCoordinator creates a coordinator forwarding completed traces to sink.
// names — the testbed's cluster — is stamped on every trace.
func NewCoordinator(eng *sim.Engine, sink Sink, names Names) *Coordinator {
	r, _ := sink.(Recycler)
	return &Coordinator{eng: eng, sink: sink, recycle: r, names: names}
}

// Reset returns the coordinator to what NewCoordinator built: trace and span
// IDs start again at 1, and no trace is pending or counted. Traces still
// pending are abandoned; the free buffers, spans and arena chunks it holds
// are kept, and so are the arena shares of finished traces its sink has not
// given back yet.
func (c *Coordinator) Reset() {
	*c = Coordinator{eng: c.eng, sink: c.sink, recycle: c.recycle, names: c.names,
		bufs: c.bufs, lasts: c.lasts, arena: c.arena, cur: c.cur, spare: c.spare}
}

// StartTrace starts the trace of a new user request of the given type; the
// caller holds it until Finish and emits the request's spans into it. The
// trace is one the sink released (Recycler) when the sink has one, a new
// one otherwise; the released trace's stream goes back to the arena, or its
// own buffer to the free lists. The new trace has no buffer until its first
// Emit.
func (c *Coordinator) StartTrace(reqType string) *Trace {
	c.nextID++
	c.pending++
	var t *Trace
	if c.recycle != nil {
		t = c.recycle.Reclaim()
	}
	if t == nil {
		t = new(Trace)
	} else {
		c.release(t)
	}
	*t = Trace{ID: c.nextID, Type: reqType, Names: c.names, Start: c.eng.Now(), last: c.lastSpan()}
	return t
}

// release takes back what a trace the sink gave back holds: its share of an
// arena chunk, which is free to fill again from the start once no trace in
// it is left, or else its own buffer.
func (c *Coordinator) release(t *Trace) {
	if t.chunk == 0 {
		c.putBuf(t.packed)
		return
	}
	ch := &c.arena[t.chunk-1]
	if ch.live--; ch.live > 0 {
		return
	}
	if t.chunk == c.cur {
		ch.buf = ch.buf[:0]
	} else {
		c.spare = append(c.spare, t.chunk)
	}
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

// grow moves t's stream to a scratch buffer of twice its capacity, or the
// first scratch size, from the free lists, and gives the old buffer back.
func (c *Coordinator) grow(t *Trace) {
	b := append(c.buf(max(2*cap(t.packed), scratchBytes)), t.packed...)
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
// takes back the span it encoded against, copies a stream of up to
// copyLimit bytes into the arena and takes its scratch buffer back if the
// sink is a Recycler, and pushes the assembled execution history graph to
// the sink; the trace stops counting as pending. Each trace is finished
// once.
func (c *Coordinator) Finish(t *Trace, dropped bool) {
	c.pending--
	t.End = c.eng.Now()
	t.Dropped = dropped
	c.lasts = append(c.lasts, t.last)
	t.last = nil
	if n := len(t.packed); c.recycle != nil && n > 0 && n <= copyLimit {
		t.chunk = c.chunkFor(n)
		ch := &c.arena[t.chunk-1]
		off := len(ch.buf)
		ch.buf = append(ch.buf, t.packed...)
		c.putBuf(t.packed)
		t.packed = ch.buf[off:len(ch.buf):len(ch.buf)]
		ch.live++
	}
	c.Collected++
	if c.sink != nil {
		c.sink.Consume(t)
	}
}

// chunkFor returns the arena chunk with room for n more bytes: the current
// one, else a spare one, else a new one. A current chunk without room still
// holds traces (release empties one that holds none), and is spare once the
// last of them comes back.
func (c *Coordinator) chunkFor(n int) uint16 {
	if c.cur != 0 {
		if ch := &c.arena[c.cur-1]; cap(ch.buf)-len(ch.buf) >= n {
			return c.cur
		}
	}
	if k := len(c.spare); k > 0 {
		c.cur = c.spare[k-1]
		c.spare = c.spare[:k-1]
		c.arena[c.cur-1].buf = c.arena[c.cur-1].buf[:0]
		return c.cur
	}
	if len(c.arena) == math.MaxUint16 {
		panic("trace: arena chunks exhausted (4 GiB of retained streams)")
	}
	c.arena = append(c.arena, chunk{buf: make([]byte, 0, chunkBytes)})
	c.cur = uint16(len(c.arena))
	return c.cur
}

// PendingCount reports how many traces are still being assembled.
func (c *Coordinator) PendingCount() int { return c.pending }

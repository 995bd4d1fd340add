package trace

import "firm/internal/sim"

// Coordinator is FIRM's Tracing Coordinator (§3.1, ① in Fig. 6): a
// data-processing component that collects spans of different requests from
// each tracing agent, combines them per trace, and hands completed execution
// history graphs to downstream sinks (the graph store and the Extractor).
//
// The paper measures <0.2% throughput and <0.11% latency overhead for
// tracing; in the simulation tracing is free, so no overhead is modelled.
type Coordinator struct {
	eng      *sim.Engine
	sink     Sink
	names    Names
	pending  int
	nextID   TraceID
	nextSpan SpanID
	// free holds the emission buffers of sealed traces for StartTrace to
	// lend again: at most as many as were ever pending at once.
	free []*[]Span
	// scratch is where Finish encodes a trace before copying it out (Seal).
	scratch []byte

	// Collected counts finished traces; SpansSeen counts raw spans.
	Collected uint64
	SpansSeen uint64
}

// NewCoordinator creates a coordinator forwarding completed traces to sink.
// names — the testbed's cluster — is stamped on every trace.
func NewCoordinator(eng *sim.Engine, sink Sink, names Names) *Coordinator {
	return &Coordinator{eng: eng, sink: sink, names: names}
}

// StartTrace allocates a trace for a new user request of the given type;
// the caller holds it until Finish and emits the request's spans into it.
// spanHint is the number of spans the request is expected to emit (its
// endpoint's call-tree size): the trace's emission buffer, taken from the
// coordinator's free list, holds at least that many before it has to grow.
// A request that retries may exceed it.
func (c *Coordinator) StartTrace(reqType string, spanHint int) *Trace {
	c.nextID++
	c.pending++
	t := &Trace{ID: c.nextID, Type: reqType, Names: c.names, Start: c.eng.Now()}
	if n := len(c.free); n > 0 {
		t.pending, c.free = c.free[n-1], c.free[:n-1]
	} else {
		t.pending = new([]Span)
	}
	if cap(*t.pending) < spanHint {
		*t.pending = make([]Span, 0, spanHint)
	}
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

// Emit records a span produced by a tracing agent into its pending trace.
//
//firmvet:noalloc
func (c *Coordinator) Emit(t *Trace, s Span) {
	c.SpansSeen++
	*t.pending = append(*t.pending, s)
}

// Finish seals the trace: the request completed (or was dropped) and every
// agent has reported. Its spans are packed (Seal), its emission buffer goes
// back to the free list, and the assembled execution history graph is
// pushed to the sink; the trace stops counting as pending. Each trace is
// finished once.
func (c *Coordinator) Finish(t *Trace, dropped bool) {
	c.pending--
	t.End = c.eng.Now()
	t.Dropped = dropped
	buf := t.pending
	c.scratch = t.Seal(*buf, c.scratch)
	*buf = (*buf)[:0]
	c.free = append(c.free, buf)
	c.Collected++
	if c.sink != nil {
		c.sink.Consume(t)
	}
}

// PendingCount reports how many traces are still being assembled.
func (c *Coordinator) PendingCount() int { return c.pending }

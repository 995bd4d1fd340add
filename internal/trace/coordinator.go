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
	pending  map[TraceID]*Trace
	nextID   TraceID
	nextSpan SpanID

	// Collected counts finished traces; SpansSeen counts raw spans.
	Collected uint64
	SpansSeen uint64
}

// NewCoordinator creates a coordinator forwarding completed traces to sink.
func NewCoordinator(eng *sim.Engine, sink Sink) *Coordinator {
	return &Coordinator{eng: eng, sink: sink, pending: make(map[TraceID]*Trace)}
}

// StartTrace allocates a trace for a new user request of the given type.
// spanHint is the number of spans the request is expected to emit (its
// endpoint's call-tree size); Spans is allocated once at that capacity
// instead of doubling its way there. A request that retries may exceed it.
func (c *Coordinator) StartTrace(reqType string, spanHint int) TraceID {
	c.nextID++
	id := c.nextID
	t := &Trace{ID: id, Type: reqType, Start: c.eng.Now()}
	if spanHint > 0 {
		t.Spans = make([]Span, 0, spanHint)
	}
	c.pending[id] = t
	return id
}

// NewSpanID allocates a process-wide unique span id.
func (c *Coordinator) NewSpanID() SpanID {
	c.nextSpan++
	return c.nextSpan
}

// Emit records a span produced by a tracing agent. Spans for unknown (e.g.
// already finished) traces are dropped, mirroring late-arriving agent data.
//
//firmvet:noalloc
func (c *Coordinator) Emit(s Span) {
	t, ok := c.pending[s.Trace]
	if !ok {
		return
	}
	c.SpansSeen++
	t.Spans = append(t.Spans, s)
}

// Finish seals the trace: the request completed (or was dropped) and every
// agent has reported. The assembled execution history graph is pushed to the
// sink and the trace leaves the pending table.
func (c *Coordinator) Finish(id TraceID, dropped bool) {
	t, ok := c.pending[id]
	if !ok {
		return
	}
	delete(c.pending, id)
	t.End = c.eng.Now()
	t.Dropped = dropped
	c.Collected++
	if c.sink != nil {
		c.sink.Consume(t)
	}
}

// PendingCount reports how many traces are still being assembled.
func (c *Coordinator) PendingCount() int { return len(c.pending) }

// Package trace models FIRM's distributed-tracing substrate (§3.1): spans
// emitted by per-container tracing agents, assembled by a Tracing
// Coordinator into execution history graphs. The design mirrors
// Dapper/Jaeger: a span is the basic unit of work done by one microservice
// instance for one request; parent-child span relationships encode RPC
// caller/callee edges.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"firm/internal/sim"
)

// TraceID identifies one end-to-end user request.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// Span records the work done by a single microservice instance for one
// request: arrival (Start, includes queueing), response (End), queueing
// delay, and the identity of the serving container.
type Span struct {
	Trace    TraceID
	ID       SpanID
	Parent   SpanID // 0 for the root span
	Service  string
	Instance string // container ID
	Start    sim.Time
	End      sim.Time
	Queued   sim.Time // time spent waiting in the container queue
	// Background marks spans that do not return a value to their parent
	// (§3.2: background workflows, e.g. writeTimeline). They are excluded
	// from critical paths but considered during culprit localization.
	Background bool
}

// Duration returns the span's wall-clock duration.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Trace is a completed execution history graph: all spans of one request.
type Trace struct {
	ID      TraceID
	Type    string // request type, e.g. "compose-post"
	Spans   []Span
	Start   sim.Time
	End     sim.Time
	Dropped bool // the request was shed by some container queue
}

// Latency returns the end-to-end latency of the request.
func (t *Trace) Latency() sim.Time { return t.End - t.Start }

// Root returns the root span, or a zero Span if absent.
func (t *Trace) Root() Span {
	for _, s := range t.Spans {
		if s.Parent == 0 {
			return s
		}
	}
	return Span{}
}

// Children returns the child spans of parent, ordered by start time. This is
// the adjacency view used by the critical-path extractor (Alg. 1).
func (t *Trace) Children(parent SpanID) []Span {
	var out []Span
	for _, s := range t.Spans {
		if s.Parent == parent && s.ID != parent {
			out = append(out, s)
		}
	}
	// (Start, ID) is a total order within a trace — span IDs are unique —
	// so the unstable sort has one possible output.
	slices.SortFunc(out, func(a, b Span) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}

// SelfDuration returns the span's exclusive time: its duration minus the
// union of its non-background children's intervals (clipped to the span).
// This is the "individual latency" of the paper's Table 1 — a parent
// waiting on a slow child is not itself slow, which is what culprit
// localization must distinguish.
func (t *Trace) SelfDuration(s Span) sim.Time {
	kids := t.Children(s.ID) // sorted by start time
	var covered sim.Time
	curLo, curHi := sim.Time(0), sim.Time(0)
	started := false
	flush := func() {
		if started && curHi > curLo {
			covered += curHi - curLo
		}
	}
	for _, k := range kids {
		if k.Background {
			continue
		}
		lo, hi := k.Start, k.End
		if lo < s.Start {
			lo = s.Start
		}
		if hi > s.End {
			hi = s.End
		}
		if hi <= lo {
			continue
		}
		if !started {
			curLo, curHi, started = lo, hi, true
			continue
		}
		if lo <= curHi { // overlapping or adjacent: extend
			if hi > curHi {
				curHi = hi
			}
		} else {
			flush()
			curLo, curHi = lo, hi
		}
	}
	flush()
	self := s.Duration() - covered
	if self < 0 {
		self = 0
	}
	return self
}

// Services returns the distinct service names touched by the trace.
func (t *Trace) Services() []string {
	set := map[string]struct{}{}
	for _, s := range t.Spans {
		set[s.Service] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Validate performs structural checks: exactly one root, all parents exist,
// child intervals inside parent intervals (up to RPC delays children may end
// after the parent for background work only).
func (t *Trace) Validate() error {
	roots := 0
	ids := map[SpanID]Span{}
	for _, s := range t.Spans {
		if s.Parent == 0 {
			roots++
		}
		if _, dup := ids[s.ID]; dup {
			return fmt.Errorf("trace %d: duplicate span id %d", t.ID, s.ID)
		}
		ids[s.ID] = s
		if s.End < s.Start {
			return fmt.Errorf("trace %d: span %d ends before it starts", t.ID, s.ID)
		}
	}
	if roots != 1 {
		return fmt.Errorf("trace %d: %d roots, want 1", t.ID, roots)
	}
	for _, s := range t.Spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := ids[s.Parent]
		if !ok {
			return fmt.Errorf("trace %d: span %d has unknown parent %d", t.ID, s.ID, s.Parent)
		}
		if s.Start < p.Start {
			return fmt.Errorf("trace %d: span %d starts before parent", t.ID, s.ID)
		}
		if !s.Background && s.End > p.End {
			return fmt.Errorf("trace %d: non-background span %d ends after parent", t.ID, s.ID)
		}
	}
	return nil
}

// Sink receives completed traces. The tracedb store and experiment probes
// implement it.
type Sink interface {
	Consume(*Trace)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(*Trace)

// Consume implements Sink.
func (f SinkFunc) Consume(t *Trace) { f(t) }

// MultiSink fans a trace out to several sinks.
func MultiSink(sinks ...Sink) Sink {
	return SinkFunc(func(t *Trace) {
		for _, s := range sinks {
			s.Consume(t)
		}
	})
}

// Package trace models FIRM's distributed-tracing substrate (§3.1): spans
// emitted by per-container tracing agents, assembled by a Tracing
// Coordinator into execution history graphs. The design mirrors
// Dapper/Jaeger: a span is the basic unit of work done by one microservice
// instance for one request; parent-child span relationships encode RPC
// caller/callee edges.
//
// Spans name their service and instance by dense integer ID — the cluster's
// ReplicaSet.ID and Container.ID — so a Span holds no pointer and a sealed
// trace's packed spans are never scanned by the collector. Every Trace
// carries its testbed's Names; a name is resolved only where a string leaves
// the system (a CP signature, a candidate ordering, a report row).
package trace

import (
	"cmp"
	"fmt"
	"slices"

	"firm/internal/sim"
)

// Names resolves the IDs spans carry. A testbed has exactly one — its
// cluster.Cluster, which mints the IDs.
type Names interface {
	ServiceName(id uint32) string
	InstanceName(id uint32) string
}

// TraceID identifies one end-to-end user request.
type TraceID uint64

// SpanID identifies one span within a trace. It is the coordinator's
// process-wide counter, 32 bits wide: NewSpanID panics rather than wrap.
type SpanID uint32

// Span records the work done by a single microservice instance for one
// request: arrival (Start, includes queueing), duration to the response,
// queueing delay, and the identity of the serving container. It is 32
// pointer-free bytes, and its narrow fields are bounds, each guarded by a
// panic where it is filled: 2^32-1 spans per run (NewSpanID), 65,536
// services per cluster (cluster.Cluster), and 2^32-1 µs (≈ 71.6 min) for
// one span's duration or queueing delay (the app's frame).
type Span struct {
	ID       SpanID
	Parent   SpanID // 0 for the root span
	Instance uint32 // container ID
	Service  uint16 // service ID
	// Background marks spans that do not return a value to their parent
	// (§3.2: background workflows, e.g. writeTimeline). They are excluded
	// from critical paths but considered during culprit localization.
	Background bool
	Start      sim.Time
	Dur        uint32 // µs from Start to the response
	Queued     uint32 // µs spent waiting in the container queue
}

// End returns when the span's response was sent: Start + Dur.
func (s Span) End() sim.Time { return s.Start + sim.Time(s.Dur) }

// Duration returns the span's wall-clock duration.
func (s Span) Duration() sim.Time { return sim.Time(s.Dur) }

// Trace is one request's execution history graph. While pending, its spans
// are appended to an emission buffer lent by the Coordinator; Finish seals
// them into one packed byte stream (pack.go) and takes the buffer back. A
// sealed trace is read through AppendSpans, or decoded once per visit by a
// ChildIndex. The header stays within the 96-byte size class.
//
// A sink that releases a trace may hand it back to the Coordinator
// (Recycler), which reuses the header and the packed storage for a later
// request: nothing may read a trace after its sink has released it.
type Trace struct {
	ID      TraceID
	Type    string // request type, e.g. "compose-post"
	Names   Names  // resolves the spans' Service and Instance IDs
	Start   sim.Time
	End     sim.Time
	packed  []byte  // the sealed spans; nil while pending
	pending *[]Span // the emission buffer; nil once sealed
	n       uint32  // sealed span count
	Dropped bool    // the request was shed by some container queue
	// poisoned marks a released trace that Poison cleared: every read of
	// its latency or spans panics.
	poisoned bool
}

// Latency returns the end-to-end latency of the request.
func (t *Trace) Latency() sim.Time {
	t.check()
	return t.End - t.Start
}

// Poison clears a released trace for good instead of letting it be reused:
// any later read of its latency or spans panics, and its End reads as 0.
// Tests set their sink's poison mode to catch a reader that keeps a trace
// past its release.
func (t *Trace) Poison() { *t = Trace{poisoned: true} }

// check panics on a poisoned trace.
func (t *Trace) check() {
	if t.poisoned {
		panic("trace: read of a released trace")
	}
}

// Root decodes the trace and returns its root span (RootIndex), or a zero
// Span if there is none. A reader that decodes the trace anyway finds the
// root in its own spans instead.
func (t *Trace) Root() Span {
	spans := t.AppendSpans(nil)
	if i := RootIndex(spans); i >= 0 {
		return spans[i]
	}
	return Span{}
}

// RootIndex returns the position in spans of a trace's root span, or -1 if
// there is none. A retried endpoint root leaves one Parent == 0 span per
// attempt that reached a container — the shed ones, then the served one;
// the root is the attempt that ended last (ties: the larger ID).
//
//firmvet:noalloc
func RootIndex(spans []Span) int {
	root := -1
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			continue
		}
		if root >= 0 {
			if r := &spans[root]; s.End() < r.End() || (s.End() == r.End() && s.ID < r.ID) {
				continue
			}
		}
		root = i
	}
	return root
}

// ChildIndex is where a sealed trace is decoded for structured reading: its
// spans, and their parent→children adjacency, built once per trace into
// storage the owner reuses from trace to trace. Consumers that ask for every
// span's children (the critical-path extractor, per-span self times) pay one
// decode and one sort per trace instead of a scan, a copy and a sort per
// span. Nothing is stored on the Trace. The zero value is ready for Reset.
type ChildIndex struct {
	spans []Span // the trace's spans, decoded by Reset
	// order holds the index (into spans) of every span that is somebody's
	// child, sorted by (Parent, Start, ID): each parent's children are one
	// contiguous run, already in the order Children returns them.
	order []int32
	// SelfDurations' run table: each run's parent ID, ascending, and where
	// it starts in order (one more entry: the end of the last run).
	heads  []SpanID
	starts []int32
}

// Reset decodes t's spans and rebuilds the adjacency in place.
//
//firmvet:noalloc
func (x *ChildIndex) Reset(t *Trace) {
	x.spans = t.AppendSpans(x.spans[:0])
	x.order = x.order[:0]
	for i := range x.spans {
		if s := &x.spans[i]; s.Parent != s.ID { // a self-parented span is nobody's child
			x.order = append(x.order, int32(i))
		}
	}
	spans := x.spans
	// (Parent, Start, ID) is a total order within a trace — span IDs are
	// unique — so the unstable sort has one possible output.
	//firmvet:allow noalloc -- the comparator does not escape SortFunc, so it lives on the stack
	slices.SortFunc(x.order, func(a, b int32) int {
		sa, sb := &spans[a], &spans[b]
		if c := cmp.Compare(sa.Parent, sb.Parent); c != 0 {
			return c
		}
		if c := cmp.Compare(sa.Start, sb.Start); c != 0 {
			return c
		}
		return cmp.Compare(sa.ID, sb.ID)
	})
}

// Spans returns the decoded spans of the trace last Reset to, in emission
// order. The slice aliases index storage: valid until the next Reset, and
// not to be modified.
func (x *ChildIndex) Spans() []Span { return x.spans }

// Of returns the positions in Spans() of parent's children, ordered by
// (Start, ID). The slice aliases index storage: valid until the next Reset,
// and not to be modified.
func (x *ChildIndex) Of(parent SpanID) []int32 {
	spans := x.spans
	lo, _ := slices.BinarySearchFunc(x.order, parent, func(i int32, p SpanID) int {
		if spans[i].Parent < p {
			return -1
		}
		return 1 // first position whose parent is >= p
	})
	hi := lo
	for hi < len(x.order) && spans[x.order[hi]].Parent == parent {
		hi++
	}
	return x.order[lo:hi]
}

// SelfDuration returns the span's exclusive time: its duration minus the
// union of its non-background children's intervals (clipped to the span).
// This is the "individual latency" of the paper's Table 1 — a parent
// waiting on a slow child is not itself slow, which is what culprit
// localization must distinguish. A reader that wants every span's asks
// SelfDurations once instead.
func (x *ChildIndex) SelfDuration(s Span) sim.Time {
	return x.selfOver(s, x.Of(s.ID))
}

// SelfDurations returns every span's SelfDuration, aligned with Spans(), in
// dst's storage (grown if short). It walks the child runs once: each run is
// one parent's children, and is looked up by that parent's ID in a compact
// table of run heads rather than by a search through the index per span.
//
//firmvet:noalloc
func (x *ChildIndex) SelfDurations(dst []sim.Time) []sim.Time {
	spans, order := x.spans, x.order
	x.heads, x.starts = x.heads[:0], x.starts[:0]
	for i := range order {
		if p := spans[order[i]].Parent; i == 0 || p != x.heads[len(x.heads)-1] {
			x.heads = append(x.heads, p)
			x.starts = append(x.starts, int32(i))
		}
	}
	x.starts = append(x.starts, int32(len(order)))
	dst = slices.Grow(dst[:0], len(spans))[:len(spans)]
	for i, s := range spans {
		r, ok := slices.BinarySearch(x.heads, s.ID)
		if !ok {
			dst[i] = s.Duration() // a leaf
			continue
		}
		dst[i] = x.selfOver(s, order[x.starts[r]:x.starts[r+1]])
	}
	return dst
}

// selfOver is s's duration minus the union of the intervals of the
// non-background spans among kids (positions in Spans(), ordered by
// start), clipped to s.
func (x *ChildIndex) selfOver(s Span, kids []int32) sim.Time {
	var covered sim.Time
	curLo, curHi := sim.Time(0), sim.Time(0)
	started := false
	for _, ki := range kids { // sorted by start time
		k := &x.spans[ki]
		if k.Background {
			continue
		}
		lo, hi := max(k.Start, s.Start), min(k.End(), s.End())
		if hi <= lo {
			continue
		}
		if started && lo <= curHi { // overlapping or adjacent: extend
			curHi = max(curHi, hi)
			continue
		}
		if started {
			covered += curHi - curLo
		}
		curLo, curHi, started = lo, hi, true
	}
	if started {
		covered += curHi - curLo
	}
	return max(s.Duration()-covered, 0)
}

// Validate performs structural checks: a root exists, any other Parent == 0
// span is a shed attempt of a retried root (childless, over before the root
// starts), all parents exist, child intervals inside parent intervals (up to
// RPC delays children may end after the parent for background work only).
func (t *Trace) Validate() error {
	spans := t.AppendSpans(nil)
	ids := map[SpanID]Span{}
	for _, s := range spans {
		if _, dup := ids[s.ID]; dup {
			return fmt.Errorf("trace %d: duplicate span id %d", t.ID, s.ID)
		}
		ids[s.ID] = s
	}
	ri := RootIndex(spans)
	if ri < 0 {
		return fmt.Errorf("trace %d: no root span", t.ID)
	}
	root := spans[ri]
	for _, s := range spans {
		if s.Parent == 0 {
			if s.ID != root.ID && s.End() > root.Start {
				return fmt.Errorf("trace %d: second root %d overlaps root %d", t.ID, s.ID, root.ID)
			}
			continue
		}
		p, ok := ids[s.Parent]
		if !ok {
			return fmt.Errorf("trace %d: span %d has unknown parent %d", t.ID, s.ID, s.Parent)
		}
		if p.Parent == 0 && p.ID != root.ID {
			return fmt.Errorf("trace %d: span %d is a child of shed root attempt %d", t.ID, s.ID, p.ID)
		}
		if s.Start < p.Start {
			return fmt.Errorf("trace %d: span %d starts before parent", t.ID, s.ID)
		}
		if !s.Background && s.End() > p.End() {
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

// Recycler is a Sink that gives back the traces it has released, for the
// Coordinator to reuse: a trace it reclaims is no longer referenced by the
// sink or by anything the sink fed.
type Recycler interface {
	Sink
	// Reclaim returns a released trace, or nil when none is free.
	Reclaim() *Trace
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(*Trace)

// Consume implements Sink.
func (f SinkFunc) Consume(t *Trace) { f(t) }

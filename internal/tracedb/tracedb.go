// Package tracedb is the reproduction's stand-in for the graph database
// (Neo4j in the paper, §3.1) that stores execution history graphs. It keeps
// a bounded in-memory window of completed traces with indexes by request
// type and supports the time-window queries the Extractor issues when an
// SLO violation is detected.
package tracedb

import (
	"sort"

	"firm/internal/ring"
	"firm/internal/sim"
	"firm/internal/trace"
)

// Observer receives the store's mutation stream: every consumed trace and
// every trace the bounded ring evicts to make room. Incremental views —
// detect.Monitor's sliding tail-latency window is the motivating one — stay
// exactly synchronized with the store this way, instead of re-selecting the
// window each tick.
type Observer interface {
	// TraceStored is called after t enters the ring.
	TraceStored(t *trace.Trace)
	// TraceEvicted is called when the ring overwrites its oldest trace.
	// Eviction happens in consume order, so observers see evictions
	// oldest-first, each before the TraceStored that displaced it.
	TraceEvicted(t *trace.Trace)
}

// Store is a bounded ring of completed traces with per-request-type indexes.
// The ring grows toward cap traces and overwrites in place from then on: a
// testbed that never stores cap traces (every training episode, most
// experiment cells) never pays for cap pointers.
type Store struct {
	traces ring.Ring[*trace.Trace]
	obs    []Observer

	total uint64
}

// New creates a store holding at most cap traces (oldest evicted first).
func New(cap int) *Store {
	if cap <= 0 {
		panic("tracedb: capacity must be positive")
	}
	return &Store{traces: ring.New[*trace.Trace](cap, 0)}
}

// Consume implements trace.Sink.
func (s *Store) Consume(t *trace.Trace) {
	if s.traces.Full() {
		for _, o := range s.obs {
			o.TraceEvicted(*s.traces.At(0))
		}
	}
	*s.traces.Push() = t
	s.total++
	for _, o := range s.obs {
		o.TraceStored(t)
	}
}

// Observe registers an observer, first replaying the store's current
// contents (oldest-first) as TraceStored calls so registration order
// relative to workload start does not matter.
func (s *Store) Observe(o Observer) {
	for i, n := 0, s.Len(); i < n; i++ {
		o.TraceStored(s.at(i))
	}
	s.obs = append(s.obs, o)
}

// Len returns the number of traces currently stored.
func (s *Store) Len() int { return s.traces.Len() }

// Total returns the number of traces ever consumed.
func (s *Store) Total() uint64 { return s.total }

// at returns the i-th stored trace oldest-first, 0 <= i < Len().
func (s *Store) at(i int) *trace.Trace { return *s.traces.At(i) }

// Query selects traces matching the filter. Zero-valued filter fields match
// everything.
type Query struct {
	Since       sim.Time // trace End >= Since
	Type        string   // request type
	IncludeDrop bool     // include dropped-request traces
	Limit       int      // max results (0 = unlimited), newest kept
}

// Select returns matching traces oldest-first. Traces are consumed at
// completion time on the engine's monotonic clock, so the ring is ordered
// by End; the Since bound is found by binary search instead of copying and
// scanning the whole window (the control loop issues a Select per tick
// against a window that is a tiny suffix of the 200k-trace store).
func (s *Store) Select(q Query) []*trace.Trace {
	return s.SelectAppend(nil, q)
}

// SelectAppend appends the traces Select would return to dst and returns
// the extended slice. Per-tick callers (the control loop's violated path)
// pass a retained buffer re-sliced to length zero, so the selection reuses
// one allocation for the life of the controller.
func (s *Store) SelectAppend(dst []*trace.Trace, q Query) []*trace.Trace {
	n := s.Len()
	start := 0
	if q.Since > 0 {
		start = sort.Search(n, func(i int) bool { return s.at(i).End >= q.Since })
	}
	base := len(dst)
	for i := start; i < n; i++ {
		t := s.at(i)
		if q.Type != "" && t.Type != q.Type {
			continue
		}
		if t.Dropped && !q.IncludeDrop {
			continue
		}
		dst = append(dst, t)
	}
	if matched := dst[base:]; q.Limit > 0 && len(matched) > q.Limit {
		kept := copy(matched, matched[len(matched)-q.Limit:])
		dst = dst[:base+kept]
	}
	return dst
}

// Latencies returns end-to-end latencies (ms) of matching traces.
func (s *Store) Latencies(q Query) []float64 {
	ts := s.Select(q)
	out := make([]float64, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.Latency().Millis())
	}
	return out
}

// ServiceLatencies returns, for each service appearing in matching traces,
// the list of span durations (ms). Used by Alg. 2 to compute per-instance
// congestion intensity.
func (s *Store) ServiceLatencies(q Query) map[string][]float64 {
	out := map[string][]float64{}
	for _, t := range s.Select(q) {
		for _, sp := range t.Spans {
			name := t.Names.ServiceName(sp.Service)
			out[name] = append(out[name], sp.Duration().Millis())
		}
	}
	return out
}

// Package tracedb is the reproduction's stand-in for the graph database
// (Neo4j in the paper, §3.1) that stores execution history graphs. It keeps
// what its readers read:
//
//   - a latency column for the whole run, one 16-byte entry per consumed
//     trace (End, latency in µs, request type, dropped; a latency too long
//     for 32 bits sits in a side table), which Latencies reads;
//   - full traces only for a declared look-back window: every trace whose End
//     is within the window of the newest End, and never fewer than the newest
//     floor. Select, SelectAppend and ServiceLatencies read these, and panic
//     when a query reaches past them, rather than answer short.
//
// An evicted trace is released to the trace coordinator, which reuses its
// memory for a later request (trace.Recycler).
package tracedb

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"firm/internal/ring"
	"firm/internal/sim"
	"firm/internal/trace"
)

// Observer receives the store's mutation stream: every consumed trace and
// every trace the store evicts. Incremental views — detect.Monitor's sliding
// tail-latency window is the motivating one — stay exactly synchronized with
// the store this way, instead of re-selecting the window each tick.
type Observer interface {
	// TraceStored is called after t enters the store.
	TraceStored(t *trace.Trace)
	// TraceEvicted is called when t leaves the store. Eviction happens in
	// consume order, so observers see evictions oldest-first, each before
	// the TraceStored that displaced it. The observer must keep no
	// reference to t once it returns: the store then releases t, and the
	// coordinator reuses it for a new request.
	TraceEvicted(t *trace.Trace)
}

// Forever is a window no run outlasts: a store built with it keeps every
// trace.
const Forever sim.Time = math.MaxInt64

// blockBits sizes the latency column's blocks: 4,096 entries each, so the
// column grows by one fixed block at a time and never copies what it holds.
const (
	blockBits = 12
	blockLen  = 1 << blockBits
)

// entry is one consumed trace in the latency column: 16 bytes.
type entry struct {
	end sim.Time
	// lat is End - Start in µs; longLat when Store.long holds it, as it
	// does every latency below 0 or from 2^32-1 µs (≈ 71.6 min) up.
	lat     uint32
	typ     uint16 // the request type, by Store.typeIdx
	dropped bool
}

// longLat marks an entry whose latency is in Store.long.
const longLat = math.MaxUint32

// Store keeps the run's latency column and its window of full traces, with
// the traces it has released for reuse.
type Store struct {
	window sim.Time
	floor  int
	traces ring.Ring[*trace.Trace] // the retained traces, oldest first
	obs    []Observer

	col     []*[blockLen]entry // the latency column, in consume order
	n       int                // entries in col: traces ever consumed
	typeIdx map[string]uint16  // each request type's column index
	long    map[int]sim.Time   // the latencies entries mark longLat, by column index

	// free holds evicted traces, released once every observer has seen the
	// eviction, for the coordinator to reuse (Reclaim) oldest first: the
	// coordinator packs finished streams into shared arena chunks, and a
	// chunk is reused only once every trace in it has come back, so
	// reclaiming in eviction order frees the oldest chunks first instead of
	// leaving old traces at the bottom of a stack, each pinning a chunk.
	free ring.Ring[*trace.Trace]
	// poison is set by tests only: evicted traces are then cleared
	// (trace.Poison) and never reused, so a read after eviction panics.
	poison bool
}

// New returns a store that keeps full traces whose End is within window of
// the newest End, and never fewer than the newest floor of them.
func New(window sim.Time, floor int) *Store {
	if window < 0 || floor < 0 {
		panic("tracedb: negative window or floor")
	}
	return &Store{window: window, floor: floor, typeIdx: map[string]uint16{}}
}

// Window returns how far back from the newest End the store keeps full
// traces. An observer that advances a window of w every step s needs
// Window() >= w + s.
func (s *Store) Window() sim.Time { return s.window }

// Consume implements trace.Sink. Traces arrive in End order: they are
// consumed at completion time on the engine's monotonic clock.
func (s *Store) Consume(t *trace.Trace) {
	for n := s.traces.Len(); n > 0 && n >= s.floor && t.End-(*s.traces.At(0)).End > s.window; n-- {
		s.evict()
	}
	s.record(t)
	*s.traces.Push() = t
	for _, o := range s.obs {
		o.TraceStored(t)
	}
}

// evict removes the oldest retained trace, tells the observers, and then
// releases it.
func (s *Store) evict() {
	slot := s.traces.Pop()
	t := *slot
	*slot = nil
	for _, o := range s.obs {
		o.TraceEvicted(t)
	}
	s.release(t)
}

// Reset empties the store and forgets its observers, keeping its window and
// floor: it is then what New builds, but for its storage. Retained traces are
// released for reuse, as at eviction, without telling the observers; the
// latency column's blocks and the trace ring keep their storage.
func (s *Store) Reset() {
	for s.traces.Len() > 0 {
		slot := s.traces.Pop()
		s.release(*slot)
		*slot = nil
	}
	s.traces.Reset()
	clear(s.obs)
	s.obs = s.obs[:0]
	s.n = 0
	clear(s.typeIdx)
	clear(s.long)
}

// release hands an evicted trace to the free list (or, under poison, clears
// it for good).
func (s *Store) release(t *trace.Trace) {
	if s.poison {
		t.Poison()
	} else {
		*s.free.Push() = t
	}
}

// Reclaim implements trace.Recycler: it returns the trace released longest
// ago, or nil.
func (s *Store) Reclaim() *trace.Trace {
	if s.free.Len() == 0 {
		return nil
	}
	slot := s.free.Pop()
	t := *slot
	*slot = nil
	return t
}

// record appends t's entry to the latency column.
func (s *Store) record(t *trace.Trace) {
	typ, ok := s.typeIdx[t.Type]
	if !ok {
		if len(s.typeIdx) > math.MaxUint16 {
			panic("tracedb: more than 65,536 request types")
		}
		typ = uint16(len(s.typeIdx))
		s.typeIdx[t.Type] = typ
	}
	if s.n == len(s.col)<<blockBits {
		s.col = append(s.col, new([blockLen]entry))
	}
	e := entry{end: t.End, lat: longLat, typ: typ, dropped: t.Dropped}
	if lat := t.Latency(); lat >= 0 && lat < longLat {
		e.lat = uint32(lat)
	} else {
		if s.long == nil {
			s.long = map[int]sim.Time{}
		}
		s.long[s.n] = lat
	}
	*s.entry(s.n) = e
	s.n++
}

// entry returns the column entry of the i-th consumed trace.
func (s *Store) entry(i int) *entry { return &s.col[i>>blockBits][i&(blockLen-1)] }

// latency returns the latency of e, the column entry of the i-th consumed
// trace.
func (s *Store) latency(i int, e *entry) sim.Time {
	if e.lat == longLat {
		return s.long[i]
	}
	return sim.Time(e.lat)
}

// Observe registers an observer, first replaying the store's retained
// traces (oldest-first) as TraceStored calls so registration order
// relative to workload start does not matter.
func (s *Store) Observe(o Observer) {
	for i, n := 0, s.Len(); i < n; i++ {
		o.TraceStored(s.at(i))
	}
	s.obs = append(s.obs, o)
}

// Len returns the number of full traces retained.
func (s *Store) Len() int { return s.traces.Len() }

// Total returns the number of traces ever consumed: the column's length.
func (s *Store) Total() uint64 { return uint64(s.n) }

// at returns the i-th retained trace oldest-first, 0 <= i < Len().
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
// completion time on the engine's monotonic clock, so the store is ordered
// by End; the Since bound is found by binary search instead of scanning
// every retained trace (the control loop's window is a suffix of them).
//
// The answer is the one a store that kept every trace would give: Select
// panics when the query could need a trace the store has evicted — when its
// Since bound admits one, and its Limit is not met by retained traces.
func (s *Store) Select(q Query) []*trace.Trace {
	return s.SelectAppend(nil, q)
}

// first returns the ring position of the oldest trace the Since bound admits.
func (s *Store) first(q Query) int {
	if q.Since <= 0 {
		return 0
	}
	return sort.Search(s.Len(), func(i int) bool { return s.at(i).End >= q.Since })
}

// match reports whether t passes the query's type and drop filters.
func (q Query) match(t *trace.Trace) bool {
	return (q.Type == "" || t.Type == q.Type) && (!t.Dropped || q.IncludeDrop)
}

// SelectAppend appends the traces Select would return to dst and returns
// the extended slice, and panics where Select does. Per-tick callers pass a
// retained buffer re-sliced to length zero, so the selection reuses one
// allocation for the life of the caller.
func (s *Store) SelectAppend(dst []*trace.Trace, q Query) []*trace.Trace {
	base := len(dst)
	for i, n := s.first(q), s.Len(); i < n; i++ {
		if t := s.at(i); q.match(t) {
			dst = append(dst, t)
		}
	}
	matched := dst[base:]
	if s.reaches(q) && (q.Limit <= 0 || len(matched) < q.Limit) {
		panic(fmt.Sprintf("tracedb: query %+v reaches past the retained traces (window %v, floor %d, %d evicted, the newest ending at %v): declare a longer trace window",
			q, s.window, s.floor, s.n-s.Len(), s.entry(s.n-s.Len()-1).end))
	}
	if q.Limit > 0 && len(matched) > q.Limit {
		kept := copy(matched, matched[len(matched)-q.Limit:])
		dst = dst[:base+kept]
	}
	return dst
}

// reaches reports whether q's Since bound admits an evicted trace.
func (s *Store) reaches(q Query) bool {
	evicted := s.n - s.Len()
	return evicted > 0 && s.entry(evicted-1).end >= q.Since
}

// Latencies returns end-to-end latencies (ms) of the traces a store that
// kept every trace would Select, in the same order. It reads the latency
// column, never the traces, so it answers for the whole run: one pass,
// newest first — a Limit ends the walk once it has matched — allocating
// only its result.
func (s *Store) Latencies(q Query) []float64 {
	typ := -1 // any type
	if q.Type != "" {
		typ = len(s.typeIdx) // no entry's: an unseen type matches nothing
		if i, ok := s.typeIdx[q.Type]; ok {
			typ = int(i)
		}
	}
	lo := 0
	if q.Since > 0 {
		lo = sort.Search(s.n, func(i int) bool { return s.entry(i).end >= q.Since })
	}
	size := s.n - lo
	if q.Limit > 0 && q.Limit < size {
		size = q.Limit
	}
	out := make([]float64, 0, size)
	for i := s.n - 1; i >= lo && len(out) < size; i-- {
		if e := s.entry(i); (typ < 0 || int(e.typ) == typ) && (!e.dropped || q.IncludeDrop) {
			out = append(out, s.latency(i, e).Millis())
		}
	}
	slices.Reverse(out)
	return out
}

// ServiceLatencies returns, for each service appearing in matching traces,
// the list of span durations (ms), and panics where Select does. Used by
// Alg. 2 to compute per-instance congestion intensity.
func (s *Store) ServiceLatencies(q Query) map[string][]float64 {
	out := map[string][]float64{}
	var spans []trace.Span
	for _, t := range s.Select(q) {
		spans = t.AppendSpans(spans[:0])
		for _, sp := range spans {
			name := t.Names.ServiceName(uint32(sp.Service))
			out[name] = append(out[name], sp.Duration().Millis())
		}
	}
	return out
}

package tracedb

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"firm/internal/sim"
	"firm/internal/trace"
)

// oneName names every service "svc" and every instance "svc-1".
type oneName struct{}

func (oneName) ServiceName(uint32) string  { return "svc" }
func (oneName) InstanceName(uint32) string { return "svc-1" }

func tr(id uint64, typ string, end sim.Time, dropped bool) *trace.Trace {
	t := &trace.Trace{ID: trace.TraceID(id), Type: typ, Names: oneName{}, Start: end - 10, End: end, Dropped: dropped}
	t.Seal([]trace.Span{{ID: 1, Start: t.Start, Dur: uint32(t.End - t.Start)}})
	return t
}

// all returns the retained traces oldest-first, read straight off the ring.
func (s *Store) all() []*trace.Trace {
	out := make([]*trace.Trace, s.Len())
	for i := range out {
		out[i] = s.at(i)
	}
	return out
}

func ids(ts []*trace.Trace) []trace.TraceID {
	out := make([]trace.TraceID, len(ts))
	for i, t := range ts {
		out[i] = t.ID
	}
	return out
}

// TestWindowEviction: the store keeps the traces that ended within its
// window of the newest, and never fewer than its floor; the latency column
// keeps them all.
func TestWindowEviction(t *testing.T) {
	for _, tc := range []struct {
		window sim.Time
		floor  int
		want   []trace.TraceID
	}{
		{150, 0, []trace.TraceID{4, 5}},       // ended at 400 and 500: within 150 of 500
		{150, 4, []trace.TraceID{2, 3, 4, 5}}, // the floor keeps two more
		{0, 0, []trace.TraceID{5}},
		{Forever, 0, []trace.TraceID{1, 2, 3, 4, 5}},
	} {
		s := New(tc.window, tc.floor)
		for i := 1; i <= 5; i++ {
			s.Consume(tr(uint64(i), "a", sim.Time(i*100), false))
		}
		if got := ids(s.all()); !slices.Equal(got, tc.want) || s.Total() != 5 {
			t.Fatalf("window %v floor %d: kept %v of %d, want %v of 5", tc.window, tc.floor, got, s.Total(), tc.want)
		}
		if lats := s.Latencies(Query{}); len(lats) != 5 {
			t.Fatalf("window %v floor %d: %d latencies, want the whole run's 5", tc.window, tc.floor, len(lats))
		}
	}
	// A trace that ended with the newest is never out of the window.
	s := New(0, 0)
	for i := 1; i <= 3; i++ {
		s.Consume(tr(uint64(i), "a", 100, false))
	}
	if s.Len() != 3 {
		t.Fatalf("zero window kept %d of 3 traces ending together", s.Len())
	}
}

func TestQueryFilters(t *testing.T) {
	s := New(Forever, 0)
	s.Consume(tr(1, "a", 100, false))
	s.Consume(tr(2, "b", 200, false))
	s.Consume(tr(3, "a", 300, true))
	if got := s.Select(Query{Type: "a"}); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("type filter: %v", ids(got))
	}
	if got := s.Select(Query{Type: "a", IncludeDrop: true}); len(got) != 2 {
		t.Fatalf("drop filter: %v", ids(got))
	}
	if got := s.Select(Query{Since: 150}); len(got) != 1 {
		t.Fatalf("since filter: %v", ids(got))
	}
	if got := s.Select(Query{Limit: 1}); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("limit keeps newest: %v", ids(got))
	}
}

func TestLatencyViews(t *testing.T) {
	s := New(Forever, 0)
	s.Consume(tr(1, "a", 100, false))
	s.Consume(tr(2, "a", 200, false))
	lats := s.Latencies(Query{})
	if len(lats) != 2 || lats[0] != 10.0/1000 {
		t.Fatalf("latencies: %v", lats)
	}
	bySvc := s.ServiceLatencies(Query{})
	if len(bySvc["svc"]) != 2 {
		t.Fatalf("service latencies: %v", bySvc)
	}
}

// selectLinear is the reference Select: a scan of every trace ref holds.
func selectLinear(ref *Store, q Query) []*trace.Trace {
	var out []*trace.Trace
	for _, t := range ref.all() {
		if t.End >= q.Since && q.match(t) {
			out = append(out, t)
		}
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[len(out)-q.Limit:]
	}
	return out
}

// reachesPast reports whether q could need a trace s evicted: ref holds
// the whole stream s consumed, s a suffix of it. q reaches past when its
// Since admits the newest evicted trace and the traces s kept do not meet
// its Limit.
func reachesPast(s, ref *Store, q Query) bool {
	all := ref.all()
	evicted := len(all) - s.Len()
	if evicted == 0 || all[evicted-1].End < q.Since {
		return false
	}
	if q.Limit <= 0 {
		return true
	}
	kept := 0
	for _, t := range all[evicted:] {
		if t.End >= q.Since && q.match(t) {
			kept++
		}
	}
	return kept < q.Limit
}

// panics runs f and reports whether it panicked.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// checkQuery runs q on s and on ref, an unbounded store fed the same stream
// (s may hold copies of ref's traces). Latencies must match bit for bit.
// Select, SelectAppend and ServiceLatencies must panic exactly when q
// reaches past what s kept, and otherwise match ref's answers, in order.
func checkQuery(t *testing.T, s, ref *Store, q Query) {
	t.Helper()
	want, lats := selectLinear(ref, q), s.Latencies(q)
	if len(lats) != len(want) {
		t.Fatalf("%+v: %d latencies, want %d", q, len(lats), len(want))
	}
	for i, w := range want {
		if math.Float64bits(lats[i]) != math.Float64bits(w.Latency().Millis()) {
			t.Fatalf("%+v: latency %d = %v, want trace %d's %v", q, i, lats[i], w.ID, w.Latency().Millis())
		}
	}
	var got, appended []*trace.Trace
	var bySvc map[string][]float64
	sentinel := tr(0, "z", 0, false)
	reach := reachesPast(s, ref, q)
	for name, f := range map[string]func(){
		"Select":           func() { got = s.Select(q) },
		"SelectAppend":     func() { appended = s.SelectAppend([]*trace.Trace{sentinel}, q) },
		"ServiceLatencies": func() { bySvc = s.ServiceLatencies(q) },
	} {
		if p := panics(f); p != reach {
			t.Fatalf("%+v: %s panicked %v, want %v (kept %d of %d traces)", q, name, p, reach, s.Len(), ref.Len())
		}
	}
	if reach {
		return
	}
	if len(appended) == 0 || appended[0] != sentinel {
		t.Fatalf("%+v: SelectAppend lost dst's prefix", q)
	}
	wantIDs := ids(want)
	if !slices.Equal(ids(got), wantIDs) || !slices.Equal(ids(appended[1:]), wantIDs) {
		t.Fatalf("%+v: Select %v, SelectAppend %v, want %v", q, ids(got), ids(appended[1:]), wantIDs)
	}
	for i, g := range got {
		if g.Latency() != want[i].Latency() || g.Dropped != want[i].Dropped || g.Type != want[i].Type {
			t.Fatalf("%+v: trace %d differs from the reference's", q, g.ID)
		}
	}
	if wantSvc := ref.ServiceLatencies(q); !reflect.DeepEqual(bySvc, wantSvc) {
		t.Fatalf("%+v: ServiceLatencies %v, want %v", q, bySvc, wantSvc)
	}
}

// checkRetention fails unless s, fed the stream all, kept exactly what its
// window and floor say: the stream's newest traces, never fewer than the
// floor; everything it evicted ended more than the window before the
// newest, and everything it kept beyond the floor within it. Traces are
// compared by ID, as s may hold copies.
func checkRetention(t *testing.T, s *Store, all []*trace.Trace) {
	t.Helper()
	n := s.Len()
	evicted := len(all) - n
	if evicted < 0 || (n > 0 && (s.at(0).ID != all[evicted].ID || s.at(n-1).ID != all[len(all)-1].ID)) {
		t.Fatalf("kept %d of %d traces, not the newest of the stream", n, len(all))
	}
	if len(all) == 0 {
		return
	}
	newest := all[len(all)-1].End
	if n < min(len(all), s.floor) {
		t.Fatalf("kept %d of %d traces, below the floor of %d", n, len(all), s.floor)
	}
	if evicted > 0 && newest-all[evicted-1].End <= s.window {
		t.Fatalf("evicted trace %d ended at %v, within %v of the newest (%v)", all[evicted-1].ID, all[evicted-1].End, s.window, newest)
	}
	if n > s.floor && newest-s.at(0).End > s.window {
		t.Fatalf("kept trace %d beyond the floor, ended at %v, more than %v before the newest (%v)", s.at(0).ID, s.at(0).End, s.window, newest)
	}
}

// TestSelectMatchesLinearReference: over stores that keep everything, the
// newest few and a short window — with duplicate End timestamps and Since
// values on and off trace boundaries — every query answers as an unbounded
// store would, or panics when it could not.
func TestSelectMatchesLinearReference(t *testing.T) {
	for _, cfg := range []struct {
		window sim.Time
		floor  int
	}{{Forever, 0}, {0, 4}, {0, 7}, {250, 0}, {250, 5}} {
		for _, n := range []int{0, 3, 7, 50} {
			s, ref := New(cfg.window, cfg.floor), New(Forever, 0)
			for i := 1; i <= n; i++ {
				typ := "a"
				if i%3 == 0 {
					typ = "b"
				}
				// Duplicate End every other trace (End advances every 2).
				x := tr(uint64(i), typ, sim.Time((i/2)*100), i%4 == 0)
				s.Consume(x)
				ref.Consume(x)
			}
			checkRetention(t, s, ref.all())
			if got := ids(s.all()); !slices.Equal(got, ids(ref.all()[ref.Len()-s.Len():])) {
				t.Fatalf("kept %v, not the newest of the stream", got)
			}
			for _, since := range []sim.Time{-50, 0, 1, 99, 100, 101, 2200, 2400, 1 << 40} {
				for _, q := range []Query{
					{Since: since, IncludeDrop: true},
					{Since: since},
					{Since: since, Type: "a"},
					{Since: since, Type: "b", IncludeDrop: true, Limit: 3},
					{Since: since, Limit: 1},
				} {
					checkQuery(t, s, ref, q)
				}
			}
		}
	}
}

func TestNewPanicsOnNegativeBounds(t *testing.T) {
	for _, f := range []func(){func() { New(-1, 0) }, func() { New(0, -1) }} {
		if !panics(f) {
			t.Fatal("want panic")
		}
	}
}

// TestLatenciesMatchSelect: Latencies answers for the whole run from the
// latency column, as an unbounded store's Select would, with its Since,
// filters and Limit-keeps-newest rule — over a store that has evicted most
// of its traces, duplicate End timestamps and limits below, at and above
// the match count — and allocates only its result.
func TestLatenciesMatchSelect(t *testing.T) {
	s, ref := New(300, 4), New(Forever, 0)
	for i := 1; i <= 40; i++ {
		typ := []string{"a", "b", "c"}[i%3]
		x := &trace.Trace{ID: trace.TraceID(i), Type: typ, Start: sim.Time(i * 37 % 101), End: sim.Time(200 + (i/2)*100), Dropped: i%5 == 0}
		s.Consume(x)
		ref.Consume(x)
	}
	if s.Len() == ref.Len() {
		t.Fatal("the store evicted nothing; the test would be vacuous")
	}
	for _, since := range []sim.Time{0, 1300, 1400, 1450, 5000} {
		for _, typ := range []string{"", "a", "z"} {
			for _, limit := range []int{0, 1, 3, 16, 40} {
				for _, drop := range []bool{false, true} {
					q := Query{Since: since, Type: typ, IncludeDrop: drop, Limit: limit}
					checkQuery(t, s, ref, q)
					if allocs := testing.AllocsPerRun(5, func() { s.Latencies(q) }); allocs > 1 {
						t.Fatalf("%+v: %v allocs, want at most the result's", q, allocs)
					}
				}
			}
		}
	}
}

// TestLatencyColumnSpansBlocks: the column grows in whole blocks, and a run
// longer than one block reads back every latency, in order, across the
// block boundaries.
func TestLatencyColumnSpansBlocks(t *testing.T) {
	s := New(0, 1)
	const n = 2*blockLen + 3
	for i := 1; i <= n; i++ {
		s.Consume(&trace.Trace{ID: trace.TraceID(i), Type: "a", Start: 0, End: sim.Time(i)})
	}
	lats := s.Latencies(Query{})
	if len(lats) != n || len(s.col) != 3 {
		t.Fatalf("%d latencies in %d blocks, want %d in 3", len(lats), len(s.col), n)
	}
	for i, l := range lats {
		if l != sim.Time(i+1).Millis() {
			t.Fatalf("latency %d = %v, want %v", i, l, sim.Time(i+1).Millis())
		}
	}
}

// evictLog records what the store tells an observer, in order.
type evictLog struct{ events []string }

func (l *evictLog) TraceStored(t *trace.Trace) {
	l.events = append(l.events, "stored "+string(rune('0'+t.ID)))
}
func (l *evictLog) TraceEvicted(t *trace.Trace) {
	l.events = append(l.events, "evicted "+string(rune('0'+t.ID)))
}

// TestEvictedTracesAreReleased: an observer sees each eviction, oldest
// first, before the TraceStored that displaced it; the evicted traces are
// then Reclaim's to hand out, oldest first — so the coordinator frees its
// oldest arena chunks first — and in poison mode they are cleared instead,
// so a read trips.
func TestEvictedTracesAreReleased(t *testing.T) {
	s := New(0, 2)
	log := &evictLog{}
	s.Observe(log)
	in := make([]*trace.Trace, 5)
	for i := range in {
		in[i] = tr(uint64(i+1), "a", sim.Time(100*(i+1)), false)
		s.Consume(in[i])
	}
	want := []string{"stored 1", "stored 2", "evicted 1", "stored 3", "evicted 2", "stored 4", "evicted 3", "stored 5"}
	if !slices.Equal(log.events, want) {
		t.Fatalf("observer saw %v, want %v", log.events, want)
	}
	for _, w := range []*trace.Trace{in[0], in[1], in[2], nil} {
		if got := s.Reclaim(); got != w {
			t.Fatalf("Reclaim = %v, want %v", got, w)
		}
	}

	s = New(0, 2)
	s.poison = true
	for i := range in {
		in[i] = tr(uint64(i+1), "a", sim.Time(100*(i+1)), false)
		s.Consume(in[i])
	}
	if s.Reclaim() != nil {
		t.Fatal("a poisoned store released a trace for reuse")
	}
	if !panics(func() { in[0].AppendSpans(nil) }) || !panics(func() { in[0].Latency() }) {
		t.Fatal("reading an evicted trace in poison mode did not panic")
	}
	if got := s.Select(Query{Limit: 2}); len(got) != 2 || got[1].Latency() != 10 {
		t.Fatalf("retained traces unreadable: %v", ids(got))
	}
}

// TestStoreResetMatchesNew: a Reset store forgets its observers, releases
// every trace it kept to Reclaim, keeps its column's blocks, and from then on
// keeps and answers exactly what a new store fed the same traces does.
func TestStoreResetMatchesNew(t *testing.T) {
	s := New(1000, 2)
	log := &evictLog{}
	s.Observe(log)
	old := map[*trace.Trace]bool{}
	for i := 1; i <= blockLen+5; i++ {
		x := tr(uint64(i), "old", sim.Time(10*i), i%7 == 0)
		s.Consume(x)
		old[x] = true
	}
	blocks, heard := len(s.col), len(log.events)
	s.Reset()
	if s.Len() != 0 || s.Total() != 0 || len(s.col) != blocks {
		t.Fatalf("after Reset: %d kept, %d consumed, %d column blocks (had %d)", s.Len(), s.Total(), len(s.col), blocks)
	}
	released := 0
	for x := s.Reclaim(); x != nil; x = s.Reclaim() {
		if !old[x] {
			t.Fatalf("Reclaim returned trace %d, which the store never held", x.ID)
		}
		released++
	}
	if released != len(old) {
		t.Fatalf("%d of the %d consumed traces released, want all: evicted and kept", released, len(old))
	}

	ref := New(1000, 2)
	for i := 1; i <= 12; i++ {
		typ := []string{"b", "a"}[i%2]
		s.Consume(tr(uint64(i), typ, sim.Time(20*i), i%5 == 0))
		ref.Consume(tr(uint64(i), typ, sim.Time(20*i), i%5 == 0))
	}
	if len(log.events) != heard {
		t.Fatalf("the observer registered before Reset heard %v", log.events[heard:])
	}
	if got, want := ids(s.all()), ids(ref.all()); !slices.Equal(got, want) {
		t.Fatalf("kept %v, a new store keeps %v", got, want)
	}
	for _, q := range []Query{{}, {IncludeDrop: true}, {Type: "a"}, {Type: "old", IncludeDrop: true}, {Since: 150, Limit: 2}} {
		if got, want := s.Latencies(q), ref.Latencies(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("Latencies(%+v) = %v, a new store's %v", q, got, want)
		}
		if got, want := ids(s.Select(q)), ids(ref.Select(q)); !slices.Equal(got, want) {
			t.Fatalf("Select(%+v) = %v, a new store's %v", q, got, want)
		}
	}
	if len(s.col) != blocks {
		t.Fatalf("the column grew from %d to %d blocks", blocks, len(s.col))
	}
}

// TestLongLatencies: the column holds a latency in 32 bits of µs, and one
// that does not fit — from 2^32-1 µs, or negative — in its side table, so
// Latencies reads every one exact, before and after Reset; an entry stays
// 16 bytes.
func TestLongLatencies(t *testing.T) {
	if sz := unsafe.Sizeof(entry{}); sz != 16 {
		t.Fatalf("a column entry is %d bytes, want 16", sz)
	}
	const long = sim.Time(1<<32 + 1)
	lats := []sim.Time{long, 10, math.MaxUint32 - 1, math.MaxUint32, -3, 0}
	s := New(Forever, 0)
	end := sim.Time(0)
	consume := func(lats ...sim.Time) {
		for _, l := range lats {
			end += 100
			s.Consume(&trace.Trace{ID: trace.TraceID(s.Total() + 1), Type: "a", Start: end - l, End: end})
		}
	}
	check := func(when string, want ...sim.Time) {
		t.Helper()
		got := s.Latencies(Query{})
		if len(got) != len(want) {
			t.Fatalf("%s: %d latencies, want %d", when, len(got), len(want))
		}
		for i, w := range want {
			if got[i] != w.Millis() {
				t.Fatalf("%s: latency %d = %v ms, want %v", when, i, got[i], w.Millis())
			}
		}
	}
	consume(lats...)
	check("before Reset", lats...)
	s.Reset()
	consume(10, 20, long)
	check("after Reset", 10, 20, long)
}

// TestCoordinatorReusesEvictedTraces: a coordinator whose sink is a store
// starts each trace in one the store evicted — same header, a scratch
// buffer from the coordinator's free lists and a share of an arena chunk it
// reuses — so a warm request's trace allocates nothing, at 4 spans, 63, or
// 2,000 (≈ 14 KB, a stream that keeps its own buffer): StartTrace, the
// emits, Finish, the store's eviction and Reclaim.
func TestCoordinatorReusesEvictedTraces(t *testing.T) {
	for _, spans := range []int{4, 63, 2000} {
		eng := sim.NewEngine(1)
		s := New(0, 2)
		c := trace.NewCoordinator(eng, s, oneName{})
		seen := map[*trace.Trace]bool{}
		request := func() {
			x := c.StartTrace("a")
			seen[x] = true
			for i := range spans {
				c.Emit(x, trace.Span{ID: c.NewSpanID(), Start: eng.Now(), Dur: uint32(i + 1)})
			}
			eng.RunFor(sim.Millisecond)
			c.Finish(x, false)
		}
		for range 4 {
			request()
		}
		if allocs := testing.AllocsPerRun(50, request); allocs != 0 {
			t.Fatalf("%d spans: a warm traced request allocates %v, want 0", spans, allocs)
		}
		if len(seen) != 3 || s.Total() != 55 {
			t.Fatalf("%d spans: %d distinct traces over %d requests, want the floor's 2 and one evicted", spans, len(seen), s.Total())
		}
		got := s.Select(Query{Limit: 1})[0]
		if got.ID != 55 || got.Len() != spans || got.Latency() != sim.Millisecond || got.End != eng.Now() {
			t.Fatalf("the newest trace is %d with %d spans over %v to %v; want 55, %d, 1ms to %v",
				got.ID, got.Len(), got.Latency(), got.End, spans, eng.Now())
		}
	}
}

// TestRetainedStreamsIntact: traced requests, up to four pending at once,
// emit into scratch buffers that Emit moves as they outgrow them, and
// Finish copies their streams into the coordinator's arena chunks. The
// traffic is steady, then fast enough that the store's time window keeps
// ten times as many traces, then slow enough that it shrinks to its floor,
// so the arena grows and then reuses its chunks mid-run; one request's
// stream is too long to copy, and keeps its scratch buffer. Pooled and in
// poison mode — where no trace comes back, so no chunk is reused — every
// trace the store retains decodes to the spans emitted into it after every
// request: no buffer or chunk lent again is one a retained trace still
// holds.
func TestRetainedStreamsIntact(t *testing.T) {
	type request struct {
		x     *trace.Trace
		spans []trace.Span
		left  int // spans still to emit
	}
	for _, poison := range []bool{false, true} {
		eng := sim.NewEngine(1)
		s := New(20*sim.Millisecond, 8)
		s.poison = poison
		c := trace.NewCoordinator(eng, s, oneName{})
		rng := rand.New(rand.NewSource(3))
		emitted := map[*trace.Trace][]trace.Span{}
		var pending []*request
		most, k := 0, 0
		for _, gap := range []sim.Time{sim.Millisecond, 100 * sim.Microsecond, 4 * sim.Millisecond} {
			for range 300 {
				// A span's random Instance and Dur take ≈ 10 packed bytes, so
				// the 1,000-span request's stream is past the copy limit.
				n := 1 + rng.Intn(200)
				if k++; k == 400 {
					n = 1000
				}
				pending = append(pending, &request{x: c.StartTrace("a"), spans: make([]trace.Span, 0, n), left: n})
				for len(pending) > 0 {
					i := rng.Intn(len(pending))
					r := pending[i]
					for m := 1 + rng.Intn(r.left); m > 0; m-- {
						sp := trace.Span{ID: c.NewSpanID(), Instance: rng.Uint32(), Start: eng.Now(), Dur: rng.Uint32()}
						c.Emit(r.x, sp)
						r.spans = append(r.spans, sp)
						r.left--
					}
					if r.left > 0 {
						if len(pending) < 4 {
							break
						}
						continue
					}
					eng.RunFor(gap)
					c.Finish(r.x, false)
					emitted[r.x] = r.spans
					pending = slices.Delete(pending, i, i+1)
					for _, kept := range s.all() {
						if got := kept.AppendSpans(nil); !slices.Equal(got, emitted[kept]) {
							t.Fatalf("poison %v: retained trace %d decodes to %d spans, not the %d emitted into it",
								poison, kept.ID, len(got), len(emitted[kept]))
						}
					}
					most = max(most, s.Len())
				}
			}
		}
		if most < 10*8 || s.Len() != 8 {
			t.Fatalf("poison %v: the store kept at most %d traces and %d at the end; want the window to grow past 80 and shrink to the floor of 8",
				poison, most, s.Len())
		}
	}
}

// FuzzStoreQuery drives a windowed store — a mutated window and floor, in
// poison mode, so an evicted trace is unreadable — and an unbounded
// reference with one mutated stream of traces: non-decreasing End, a few
// types, some dropped, latencies of every size (a byte from 0xe0 up makes
// one past 2^32 µs, which the column keeps in its side table). After every trace the
// windowed store has kept exactly what its window and floor say; at the
// end, for a mutated Query, Latencies matches the reference bit for bit,
// and Select, SelectAppend and ServiceLatencies match it whenever the query
// fits what the store kept, and panic whenever it reaches past.
func FuzzStoreQuery(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{0, 9, 18, 0x20, 1, 0xc3, 7}, int16(0), uint8(0), false, int8(0))
	f.Add(uint8(8), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, int16(3), uint8(1), true, int8(2))
	f.Add(uint8(1), uint8(1), []byte{0xff, 0, 0x2a}, int16(-5), uint8(3), false, int8(-1))
	f.Add(uint8(0), uint8(2), []byte{3, 3, 3, 3, 3, 3, 3, 3, 3}, int16(12), uint8(5), true, int8(1))
	f.Add(uint8(2), uint8(1), []byte{0xe1, 5, 0xf2, 0xe0, 9, 0xff}, int16(0), uint8(0), true, int8(0))
	f.Fuzz(func(t *testing.T, window, floor uint8, stream []byte, since int16, typ uint8, includeDrop bool, limit int8) {
		s, ref := New(sim.Time(window%32), int(floor%8)), New(Forever, 0)
		s.poison = true
		var all []*trace.Trace
		end := sim.Time(0)
		for i, b := range stream {
			end += sim.Time(b & 3) // 0 repeats the previous End
			lat := sim.Time(b>>5) * sim.Time(b) * 977
			if b >= 0xe0 {
				lat <<= 12
			}
			x := &trace.Trace{
				ID:      trace.TraceID(i + 1),
				Type:    string(rune('a' + b>>2&3)),
				Names:   oneName{},
				Start:   end - lat,
				End:     end,
				Dropped: b&0x10 != 0,
			}
			x.Seal([]trace.Span{{ID: 1, Start: x.Start, Dur: uint32(x.End - x.Start)}})
			cp := *x
			s.Consume(&cp)
			ref.Consume(x)
			all = append(all, x)
			checkRetention(t, s, all)
		}
		if got := ids(s.all()); !slices.Equal(got, ids(all[len(all)-len(got):])) {
			t.Fatalf("kept %v, not the newest of the stream", got)
		}
		q := Query{Since: sim.Time(since), IncludeDrop: includeDrop, Limit: int(limit)}
		if typ%6 < 5 {
			q.Type = string(rune('a' + typ%6)) // "a".."e"; "e" matches nothing
		}
		checkQuery(t, s, ref, q)
	})
}

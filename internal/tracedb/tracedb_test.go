package tracedb

import (
	"math"
	"testing"

	"firm/internal/sim"
	"firm/internal/trace"
)

// oneName names every service "svc" and every instance "svc-1".
type oneName struct{}

func (oneName) ServiceName(uint32) string  { return "svc" }
func (oneName) InstanceName(uint32) string { return "svc-1" }

func tr(id uint64, typ string, end sim.Time, dropped bool) *trace.Trace {
	t := &trace.Trace{ID: trace.TraceID(id), Type: typ, Names: oneName{}, Start: end - 10, End: end, Dropped: dropped}
	t.Seal([]trace.Span{{ID: 1, Start: t.Start, Dur: uint32(t.End - t.Start)}}, nil)
	return t
}

// all returns stored traces oldest-first, read straight off the ring.
func (s *Store) all() []*trace.Trace {
	out := make([]*trace.Trace, s.Len())
	for i := range out {
		out[i] = s.at(i)
	}
	return out
}

func TestRingEviction(t *testing.T) {
	s := New(3)
	for i := 1; i <= 5; i++ {
		s.Consume(tr(uint64(i), "a", sim.Time(i*100), false))
	}
	if s.Len() != 3 || s.Total() != 5 {
		t.Fatalf("len=%d total=%d", s.Len(), s.Total())
	}
	got := s.Select(Query{})
	if len(got) != 3 || got[0].ID != 3 || got[2].ID != 5 {
		t.Fatalf("oldest-first window: %v", ids(got))
	}
}

func ids(ts []*trace.Trace) []trace.TraceID {
	out := make([]trace.TraceID, len(ts))
	for i, t := range ts {
		out[i] = t.ID
	}
	return out
}

func TestQueryFilters(t *testing.T) {
	s := New(10)
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
	s := New(10)
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

// selectLinear is the pre-binary-search reference implementation.
func selectLinear(s *Store, q Query) []*trace.Trace {
	var out []*trace.Trace
	for _, t := range s.all() {
		if t == nil || t.End < q.Since {
			continue
		}
		if q.Type != "" && t.Type != q.Type {
			continue
		}
		if t.Dropped && !q.IncludeDrop {
			continue
		}
		out = append(out, t)
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[len(out)-q.Limit:]
	}
	return out
}

func TestSelectMatchesLinearReference(t *testing.T) {
	// Exercise wrapped and unwrapped rings, duplicate End timestamps, and
	// Since values on/off trace boundaries.
	for _, cap := range []int{4, 7, 64} {
		for _, n := range []int{0, 3, 7, 50} {
			s := New(cap)
			for i := 1; i <= n; i++ {
				typ := "a"
				if i%3 == 0 {
					typ = "b"
				}
				// Duplicate End every other trace (End advances every 2).
				s.Consume(tr(uint64(i), typ, sim.Time((i/2)*100), i%4 == 0))
			}
			for _, since := range []sim.Time{-50, 0, 1, 99, 100, 101, 2400, 1 << 40} {
				for _, q := range []Query{
					{Since: since, IncludeDrop: true},
					{Since: since},
					{Since: since, Type: "a"},
					{Since: since, Type: "b", IncludeDrop: true, Limit: 3},
				} {
					want, got := selectLinear(s, q), s.Select(q)
					if len(want) != len(got) {
						t.Fatalf("cap=%d n=%d %+v: %d vs %d traces", cap, n, q, len(want), len(got))
					}
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("cap=%d n=%d %+v: trace %d differs", cap, n, q, i)
						}
					}
				}
			}
		}
	}
}

func TestNewPanicsOnBadCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(0)
}

// TestLatenciesMatchSelect: Latencies reads the ring directly, with Select's
// Since search, filters and Limit-keeps-newest rule — over wrapped rings,
// duplicate End timestamps and limits below, at and above the match count —
// and allocates only its result.
func TestLatenciesMatchSelect(t *testing.T) {
	s := New(16)
	for i := 1; i <= 40; i++ {
		typ := []string{"a", "b", "c"}[i%3]
		s.Consume(&trace.Trace{ID: trace.TraceID(i), Type: typ, Start: sim.Time(i * 37 % 101), End: sim.Time(200 + (i/2)*100), Dropped: i%5 == 0})
	}
	for _, since := range []sim.Time{0, 1300, 1400, 1450, 5000} {
		for _, typ := range []string{"", "a", "z"} {
			for _, limit := range []int{0, 1, 3, 16, 40} {
				for _, drop := range []bool{false, true} {
					q := Query{Since: since, Type: typ, IncludeDrop: drop, Limit: limit}
					checkLatencies(t, s, q)
					if allocs := testing.AllocsPerRun(5, func() { s.Latencies(q) }); allocs > 1 {
						t.Fatalf("%+v: %v allocs, want at most the result's", q, allocs)
					}
				}
			}
		}
	}
}

// checkLatencies fails unless Latencies(q) is the latencies of Select(q),
// bit for bit and in order.
func checkLatencies(t *testing.T, s *Store, q Query) {
	t.Helper()
	sel, got := s.Select(q), s.Latencies(q)
	if len(got) != len(sel) {
		t.Fatalf("%+v: %d latencies, Select has %d traces", q, len(got), len(sel))
	}
	for i, tr := range sel {
		if want := tr.Latency().Millis(); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%+v: latency %d = %v, Select's trace %d has %v", q, i, got[i], tr.ID, want)
		}
	}
}

// FuzzStoreQuery stores a mutated stream of traces — non-decreasing End, a
// few types, some dropped, latencies of every size — in a small ring and
// checks a mutated Query: Latencies must equal the latencies of Select, bit
// for bit and in order.
func FuzzStoreQuery(f *testing.F) {
	f.Add(uint8(4), []byte{0, 9, 18, 0x20, 1, 0xc3, 7}, int16(0), uint8(0), false, int8(0))
	f.Add(uint8(8), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, int16(3), uint8(1), true, int8(2))
	f.Add(uint8(1), []byte{0xff, 0, 0x2a}, int16(-5), uint8(3), false, int8(-1))
	f.Fuzz(func(t *testing.T, capacity uint8, stream []byte, since int16, typ uint8, includeDrop bool, limit int8) {
		s := New(1 + int(capacity%32))
		end := sim.Time(0)
		for i, b := range stream {
			end += sim.Time(b & 3) // 0 repeats the previous End
			s.Consume(&trace.Trace{
				ID:      trace.TraceID(i + 1),
				Type:    string(rune('a' + b>>2&3)),
				Start:   end - sim.Time(b>>5)*sim.Time(b)*977,
				End:     end,
				Dropped: b&0x10 != 0,
			})
		}
		q := Query{Since: sim.Time(since), IncludeDrop: includeDrop, Limit: int(limit)}
		if typ%6 < 5 {
			q.Type = string(rune('a' + typ%6)) // "a".."e"; "e" matches nothing
		}
		checkLatencies(t, s, q)
	})
}

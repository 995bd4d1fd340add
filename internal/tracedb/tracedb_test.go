package tracedb

import (
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
	t.Spans = []trace.Span{{ID: 1, Start: t.Start, End: t.End}}
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

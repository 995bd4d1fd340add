package trace

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"firm/internal/sim"
)

// scanChildren and scanSelfDuration are the per-call implementations
// ChildIndex replaced — a scan, a copy and a sort per question — kept here as
// the oracle the index is pinned against.
func scanChildren(spans []Span, parent SpanID) []Span {
	var out []Span
	for _, s := range spans {
		if s.Parent == parent && s.ID != parent {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b Span) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}

func scanSelfDuration(spans []Span, s Span) sim.Time {
	var covered sim.Time
	curLo, curHi := sim.Time(0), sim.Time(0)
	started := false
	flush := func() {
		if started && curHi > curLo {
			covered += curHi - curLo
		}
	}
	for _, k := range scanChildren(spans, s.ID) {
		if k.Background {
			continue
		}
		lo, hi := k.Start, k.End()
		if lo < s.Start {
			lo = s.Start
		}
		if hi > s.End() {
			hi = s.End()
		}
		if hi <= lo {
			continue
		}
		if !started {
			curLo, curHi, started = lo, hi, true
			continue
		}
		if lo <= curHi {
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

// randomTrace grows a span tree with the shapes the index must not get
// wrong: coarse timestamps (many ties on Start), background spans, children
// sticking out of their parents, shuffled span order, and — every other
// trace — a root that names itself as its parent.
func randomTrace(r *rand.Rand, selfParentedRoot bool) *Trace {
	n := 1 + r.Intn(40)
	var spans []Span
	for i := 0; i < n; i++ {
		s := Span{ID: SpanID(i + 1)}
		if i > 0 {
			s.Parent = SpanID(1 + r.Intn(i))
			s.Background = r.Intn(4) == 0
		} else if selfParentedRoot {
			s.Parent = s.ID
		}
		s.Start = sim.Time(r.Intn(12))
		s.Dur = uint32(r.Intn(10))
		spans = append(spans, s)
	}
	r.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
	return build(1, spans...)
}

// TestChildIndexMatchesScan pins the index — and the Trace methods now built
// on it — against the per-call scan on randomised traces, reusing one index
// across all of them the way its consumers do.
func TestChildIndexMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	var x ChildIndex
	var self []sim.Time
	for trial := 0; trial < 400; trial++ {
		tr := randomTrace(r, trial%2 == 1)
		x.Reset(tr)
		spans := tr.AppendSpans(nil)
		if !slices.Equal(x.Spans(), spans) {
			t.Fatalf("trial %d: index decoded %v, trace holds %v", trial, x.Spans(), spans)
		}
		parents := []SpanID{0, SpanID(len(spans) + 5)} // the root's parent; nobody's
		for _, s := range spans {
			parents = append(parents, s.ID)
		}
		for _, p := range parents {
			want := scanChildren(spans, p)
			var got []Span
			for _, i := range x.Of(p) {
				got = append(got, spans[i])
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: children of %d:\nindex %v\nscan  %v", trial, p, got, want)
			}
		}
		self = x.SelfDurations(self)
		for i, s := range spans {
			want := scanSelfDuration(spans, s)
			if got := x.SelfDuration(s); got != want {
				t.Fatalf("trial %d: self time of span %d: index %v, scan %v", trial, s.ID, got, want)
			}
			if self[i] != want {
				t.Fatalf("trial %d: one-pass self time of span %d: %v, scan %v", trial, s.ID, self[i], want)
			}
		}
	}
}

// TestChildIndexReuseAllocFree: once grown, re-pointing the index at another
// trace and querying it allocates nothing.
func TestChildIndexReuseAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a, b := randomTrace(r, false), randomTrace(r, true)
	var x ChildIndex
	var self []sim.Time
	for _, tr := range []*Trace{a, b} {
		x.Reset(tr)
		self = x.SelfDurations(self)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, tr := range []*Trace{a, b} {
			x.Reset(tr)
			for _, s := range x.Spans() {
				x.SelfDuration(s)
			}
			self = x.SelfDurations(self)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ChildIndex allocates %v per run, want 0", allocs)
	}
}

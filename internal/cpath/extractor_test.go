package cpath

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"firm/internal/sim"
	"firm/internal/trace"
)

// scanChildren is parent's children by a scan, a copy and a sort.
func scanChildren(spans []trace.Span, parent trace.SpanID) []trace.Span {
	var out []trace.Span
	for _, s := range spans {
		if s.Parent == parent && s.ID != parent {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b trace.Span) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.ID, b.ID))
	})
	return out
}

// scanExtract is Alg. 1 as it was written before the Extractor: a fresh
// children scan and two fresh slices per span. Kept as the oracle.
func scanExtract(t *trace.Trace) Path {
	all := t.AppendSpans(nil)
	root := rootSpan(t)
	if root.ID == 0 && root.End() == 0 {
		return Path{}
	}
	var spans []trace.Span
	var visit func(s trace.Span)
	visit = func(s trace.Span) {
		spans = append(spans, s)
		var kids []trace.Span
		for _, k := range scanChildren(all, s.ID) {
			if !k.Background {
				kids = append(kids, k)
			}
		}
		if len(kids) == 0 {
			return
		}
		lrc := kids[0]
		for _, k := range kids[1:] {
			if k.End() > lrc.End() || (k.End() == lrc.End() && k.Start > lrc.Start) ||
				(k.End() == lrc.End() && k.Start == lrc.Start && k.ID > lrc.ID) {
				lrc = k
			}
		}
		chain := []trace.Span{lrc}
		head := lrc
		for {
			var best trace.Span
			found := false
			for _, k := range kids {
				if !precedes(&k, &head) {
					continue
				}
				if !found || k.End() > best.End() || (k.End() == best.End() && k.ID > best.ID) {
					best, found = k, true
				}
			}
			if !found {
				break
			}
			chain = append([]trace.Span{best}, chain...)
			head = best
		}
		for _, c := range chain {
			visit(c)
		}
	}
	visit(root)
	return Path{Spans: spans, Latency: root.Duration()}
}

// TestExtractorMatchesScanOnRandomTraces reuses one Extractor across
// randomised span trees — coarse clocks (ties everywhere), background
// children, shuffled span order, a root-less trace now and then — and holds
// every path to the per-span-scan oracle, and every ID-resolved signature to
// one joined from the service-name strings the spans were drawn with. One
// span in six is zero-length, so coincident zero-length siblings turn up.
func TestExtractorMatchesScanOnRandomTraces(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var e Extractor
	for trial := 0; trial < 500; trial++ {
		tr, service := randomTrace(r, trial)
		want := scanExtract(tr)
		got := e.Extract(tr)
		if got.Latency != want.Latency || !slices.Equal(got.Spans, want.Spans) {
			t.Fatalf("trial %d: extractor path %v (%v), scan path %v (%v)", trial, got.Spans, got.Latency, want.Spans, want.Latency)
		}
		for i, si := range got.Index {
			if e.Kids.Spans()[si] != got.Spans[i] {
				t.Fatalf("trial %d: CP span %d indexed at %d, which holds %v", trial, i, si, e.Kids.Spans()[si])
			}
		}
		if pkg := Extract(tr); !slices.Equal(pkg.Spans, want.Spans) {
			t.Fatalf("trial %d: package-level Extract diverges from the scan", trial)
		}
		var sig []string
		for _, s := range want.Spans {
			sig = append(sig, service[s.ID])
		}
		if got, want := got.Signature(), strings.Join(sig, "→"); got != want {
			t.Fatalf("trial %d: signature %q, string-keyed oracle %q", trial, got, want)
		}
	}
}

// randomTrace draws the trial-th random trace of the tests above, and the
// service name each span was drawn with.
func randomTrace(r *rand.Rand, trial int) (*trace.Trace, map[trace.SpanID]string) {
	services := []string{"gw", "auth", "cart", "db", "cache"}
	n := 1 + r.Intn(30)
	var spans []trace.Span
	service := map[trace.SpanID]string{} // the string-keyed side
	for i := 0; i < n; i++ {
		name := services[r.Intn(len(services))]
		s := sp(trace.SpanID(i+1), 0, name, 0, 0, false)
		service[s.ID] = name
		if i > 0 {
			s.Parent = trace.SpanID(1 + r.Intn(i))
			s.Background = r.Intn(5) == 0
		} else if trial%25 == 24 {
			s.Parent = 99 // no root at all
		}
		// Children start after their parent does (ids grow down the
		// tree), so chains are long enough to matter; time is coarse.
		s.Start = sim.Time(i/3 + r.Intn(4))
		s.Dur = uint32(r.Intn(6))
		spans = append(spans, s)
	}
	r.Shuffle(n, func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
	tr := &trace.Trace{ID: 1, Names: testNames}
	tr.Seal(spans)
	return tr, service
}

// TestSelfDurationsMatchPerSpan: on the same random traces, the index's
// one-pass self-durations equal its per-span SelfDuration, span for span,
// with one result buffer reused across traces.
func TestSelfDurationsMatchPerSpan(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var e Extractor
	var self []sim.Time
	for trial := 0; trial < 500; trial++ {
		tr, _ := randomTrace(r, trial)
		e.Extract(tr)
		self = e.Kids.SelfDurations(self)
		spans := e.Kids.Spans()
		if len(self) != len(spans) {
			t.Fatalf("trial %d: %d self-durations for %d spans", trial, len(self), len(spans))
		}
		for i, s := range spans {
			if want := e.Kids.SelfDuration(s); self[i] != want {
				t.Fatalf("trial %d: span %d self-duration %v, per-span %v", trial, s.ID, self[i], want)
			}
		}
	}
}

// TestCoincidentZeroLengthSiblingsTerminate: two zero-length siblings at one
// instant each happen-before the other; the chain must still end, with both
// on the path in ID order. (Alg. 1 as first written looped here forever.)
func TestCoincidentZeroLengthSiblingsTerminate(t *testing.T) {
	tr := mkTrace(
		sp(1, 0, "gw", 0, 10, false),
		sp(2, 1, "auth", 4, 4, false),
		sp(3, 1, "cart", 4, 4, false),
		sp(4, 1, "db", 1, 3, false),
	)
	var ids []trace.SpanID
	for _, s := range Extract(tr).Spans {
		ids = append(ids, s.ID)
	}
	if want := []trace.SpanID{1, 4, 2, 3}; !slices.Equal(ids, want) {
		t.Fatalf("critical path %v, want %v", ids, want)
	}
}

// TestExtractorWarmAllocFree: a reused Extractor allocates nothing per trace
// once its buffers have grown.
func TestExtractorWarmAllocFree(t *testing.T) {
	tr := fig2Trace(100, 120, 90)
	var e Extractor
	e.Extract(tr)
	if allocs := testing.AllocsPerRun(50, func() { e.Extract(tr) }); allocs != 0 {
		t.Fatalf("warm Extractor allocates %v per trace, want 0", allocs)
	}
}

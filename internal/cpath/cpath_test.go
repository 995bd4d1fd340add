package cpath

import (
	"slices"
	"testing"

	"firm/internal/sim"
	"firm/internal/trace"
)

// nameList is a trace.Names for hand-built traces: a service's ID is its
// position in the list, and its one instance has the same ID and the name
// + "-1". sp interns into testNames.
type nameList []string

func (n *nameList) ServiceName(id uint32) string  { return (*n)[id] }
func (n *nameList) InstanceName(id uint32) string { return (*n)[id] + "-1" }

var testNames = &nameList{}

// mkTrace builds a trace from (id, parent, service, start, end, background).
func mkTrace(spans ...trace.Span) *trace.Trace {
	t := &trace.Trace{ID: 1, Type: "t", Names: testNames}
	t.Seal(spans)
	if len(spans) > 0 {
		t.Start = spans[0].Start
		t.End = spans[0].End()
	}
	return t
}

func sp(id, parent trace.SpanID, svc string, start, end sim.Time, bg bool) trace.Span {
	i := slices.Index(*testNames, svc)
	if i < 0 {
		i = len(*testNames)
		*testNames = append(*testNames, svc)
	}
	return trace.Span{ID: id, Parent: parent, Service: uint16(i), Instance: uint32(i),
		Start: start, Dur: uint32(end - start), Background: bg}
}

// Fig. 2(b)-shaped trace: N with parallel V,U,T; I sequential after U; C
// after the parallel group; W background under C.
func fig2Trace(vEnd, uEnd, tEnd sim.Time) *trace.Trace {
	return mkTrace(fig2Spans(vEnd, uEnd, tEnd)...)
}

func fig2Spans(vEnd, uEnd, tEnd sim.Time) []trace.Span {
	iStart := uEnd - 10 // unique-id nested near the end of user-tag
	return []trace.Span{
		sp(1, 0, "N", 0, 1000, false),
		sp(2, 1, "V", 10, vEnd, false),
		sp(3, 1, "U", 10, uEnd, false),
		sp(4, 3, "I", iStart, uEnd-2, false),
		sp(5, 1, "T", 10, tEnd, false),
		sp(6, 1, "C", maxT(vEnd, uEnd, tEnd)+5, 900, false),
		sp(7, 6, "W", maxT(vEnd, uEnd, tEnd)+10, 990, true),
	}
}

// rootSpan decodes tr and returns its root span (trace.RootIndex), or a
// zero Span if there is none.
func rootSpan(tr *trace.Trace) trace.Span {
	spans := tr.AppendSpans(nil)
	if i := trace.RootIndex(spans); i >= 0 {
		return spans[i]
	}
	return trace.Span{}
}

func maxT(ts ...sim.Time) sim.Time {
	m := ts[0]
	for _, t := range ts[1:] {
		if t > m {
			m = t
		}
	}
	return m
}

func TestCPFollowsSlowedParallelBranch(t *testing.T) {
	// V slowest → CP1 = N→V→C (paper Table 1 case <V,CP1>).
	p := Extract(fig2Trace(600, 300, 200))
	want := "N→C→V" // order: root, then chain(V ... C) — verify below
	_ = want
	svcs := p.Services()
	if svcs[0] != "N" {
		t.Fatalf("CP must start at root, got %v", svcs)
	}
	if !p.Contains("V") || !p.Contains("C") {
		t.Fatalf("CP1 must contain V and C: %v", svcs)
	}
	if p.Contains("U") || p.Contains("T") || p.Contains("I") {
		t.Fatalf("fast parallel branches must be off-CP: %v", svcs)
	}
	if p.Contains("W") {
		t.Fatalf("background span on CP: %v", svcs)
	}

	// U slowest → CP2 contains U and its sequential child I.
	p = Extract(fig2Trace(200, 600, 300))
	if !p.Contains("U") || !p.Contains("I") {
		t.Fatalf("CP2 must contain U and I: %v", p.Services())
	}
	if p.Contains("V") || p.Contains("T") {
		t.Fatalf("CP2 must exclude V,T: %v", p.Services())
	}

	// T slowest → CP3.
	p = Extract(fig2Trace(200, 300, 600))
	if !p.Contains("T") || p.Contains("V") || p.Contains("U") {
		t.Fatalf("CP3 wrong: %v", p.Services())
	}
}

func TestCPSequentialChain(t *testing.T) {
	// root → a ; b ; c strictly sequential: all on CP.
	tr := mkTrace(
		sp(1, 0, "root", 0, 100, false),
		sp(2, 1, "a", 5, 20, false),
		sp(3, 1, "b", 25, 50, false),
		sp(4, 1, "c", 55, 95, false),
	)
	p := Extract(tr)
	svcs := p.Services()
	if len(svcs) != 4 {
		t.Fatalf("CP = %v, want all four", svcs)
	}
	// Chain order: root, then a, b, c in execution order.
	if svcs[1] != "a" || svcs[2] != "b" || svcs[3] != "c" {
		t.Fatalf("sequential chain order wrong: %v", svcs)
	}
}

func TestCPMixedSeqPar(t *testing.T) {
	// a sequential before parallel pair (b, c); c returns last. CP: root,a,c.
	tr := mkTrace(
		sp(1, 0, "root", 0, 100, false),
		sp(2, 1, "a", 5, 20, false),
		sp(3, 1, "b", 25, 60, false),
		sp(4, 1, "c", 25, 80, false),
	)
	p := Extract(tr)
	svcs := p.Services()
	if len(svcs) != 3 || svcs[0] != "root" || svcs[1] != "a" || svcs[2] != "c" {
		t.Fatalf("CP = %v, want [root a c]", svcs)
	}
}

func TestCPLeafOnly(t *testing.T) {
	tr := mkTrace(sp(1, 0, "solo", 0, 42, false))
	p := Extract(tr)
	if len(p.Spans) != 1 || p.Latency != 42 {
		t.Fatalf("leaf CP = %+v", p)
	}
}

func TestCPEmptyTrace(t *testing.T) {
	p := Extract(&trace.Trace{ID: 9})
	if len(p.Spans) != 0 {
		t.Fatal("empty trace must yield empty CP")
	}
}

func TestCPAllBackgroundChildren(t *testing.T) {
	tr := mkTrace(
		sp(1, 0, "root", 0, 50, false),
		sp(2, 1, "bg", 5, 200, true),
	)
	p := Extract(tr)
	if len(p.Spans) != 1 || p.Signature() != "root" {
		t.Fatalf("CP = %v, background must be excluded", p.Services())
	}
}

func TestSignatureAndServiceLatency(t *testing.T) {
	tr := mkTrace(
		sp(1, 0, "root", 0, 100, false),
		sp(2, 1, "a", 5, 95, false),
	)
	p := Extract(tr)
	if p.Signature() != "root→a" {
		t.Fatalf("signature %q", p.Signature())
	}
	// A service's latency along the CP is the sum of its CP spans.
	serviceLatency := func(service string) (d sim.Time) {
		for i, name := range p.Services() {
			if name == service {
				d += p.Spans[i].Duration()
			}
		}
		return d
	}
	if serviceLatency("a") != 90 {
		t.Fatalf("service latency = %v", serviceLatency("a"))
	}
	if serviceLatency("zzz") != 0 || p.Contains("zzz") {
		t.Fatal("absent service latency must be 0")
	}
}

func TestCPDeepNesting(t *testing.T) {
	// root → mid → leaf, each the sole child: CP covers the whole chain.
	tr := mkTrace(
		sp(1, 0, "root", 0, 100, false),
		sp(2, 1, "mid", 10, 90, false),
		sp(3, 2, "leaf", 20, 80, false),
	)
	p := Extract(tr)
	if p.Signature() != "root→mid→leaf" {
		t.Fatalf("CP = %v", p.Services())
	}
}

func TestCPTieBreakDeterministic(t *testing.T) {
	// Two parallel children with identical intervals: tie-break by ID.
	tr := mkTrace(
		sp(1, 0, "root", 0, 100, false),
		sp(2, 1, "a", 10, 60, false),
		sp(3, 1, "b", 10, 60, false),
	)
	p1 := Extract(tr)
	p2 := Extract(tr)
	if p1.Signature() != p2.Signature() {
		t.Fatal("extraction not deterministic")
	}
	if !p1.Contains("b") {
		t.Fatalf("higher span id must win ties: %v", p1.Services())
	}
}

func TestGroupSeparatesSignatures(t *testing.T) {
	t1 := fig2Trace(600, 300, 200) // CP via V
	t2 := fig2Trace(200, 600, 300) // CP via U
	t3 := fig2Trace(610, 310, 210) // CP via V again
	groups := Group([]*trace.Trace{t1, t2, t3})
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	var sizes []int
	for _, g := range groups {
		sizes = append(sizes, len(g))
	}
	if !((sizes[0] == 1 && sizes[1] == 2) || (sizes[0] == 2 && sizes[1] == 1)) {
		t.Fatalf("group sizes = %v", sizes)
	}
}

func TestGroupSkipsDropped(t *testing.T) {
	t1 := fig2Trace(600, 300, 200)
	t1.Dropped = true
	if g := Group([]*trace.Trace{t1}); len(g) != 0 {
		t.Fatal("dropped traces must be excluded")
	}
}

func TestMinMaxCP(t *testing.T) {
	var traces []*trace.Trace
	// Group A (via V): latencies ~1000; group B (via U): scale ends so e2e
	// is larger by construction of root end.
	for i := 0; i < 5; i++ {
		traces = append(traces, fig2Trace(600, 300, 200))
	}
	for i := 0; i < 5; i++ {
		spans := fig2Spans(200, 600, 300)
		// Inflate end-to-end latency for group B.
		spans[0].Dur = uint32(2000 - spans[0].Start)
		traces = append(traces, mkTrace(spans...))
	}
	minSig, minLat, maxSig, maxLat, ok := MinMaxCP(traces, 3)
	if !ok {
		t.Fatal("expected two qualifying groups")
	}
	if minSig == maxSig {
		t.Fatal("min and max CP must differ")
	}
	if len(minLat) != 5 || len(maxLat) != 5 {
		t.Fatalf("group sizes %d/%d", len(minLat), len(maxLat))
	}
	if median(maxLat) <= median(minLat) {
		t.Fatal("max CP must have higher median")
	}
	// Insufficient samples: raise threshold.
	if _, _, _, _, ok := MinMaxCP(traces, 100); ok {
		t.Fatal("minSamples must filter groups")
	}
}

func TestCPLatencyEqualsRootDuration(t *testing.T) {
	tr := fig2Trace(600, 300, 200)
	p := Extract(tr)
	if root := rootSpan(tr); p.Latency != root.Duration() {
		t.Fatalf("CP latency %v != root duration %v", p.Latency, root.Duration())
	}
}

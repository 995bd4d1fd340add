package trace

import (
	"slices"
	"testing"

	"firm/internal/sim"
)

func span(id, parent SpanID, svc string, start, end sim.Time, bg bool) Span {
	return Span{Trace: 1, ID: id, Parent: parent, Service: svc,
		Instance: svc + "-1", Start: start, End: end, Background: bg}
}

func testTrace() *Trace {
	return &Trace{ID: 1, Type: "t", Start: 0, End: 100, Spans: []Span{
		span(1, 0, "root", 0, 100, false),
		span(2, 1, "a", 10, 40, false),
		span(3, 1, "b", 30, 70, false),
		span(4, 1, "w", 50, 120, true),
	}}
}

func TestTraceAccessors(t *testing.T) {
	tr := testTrace()
	if tr.Latency() != 100 {
		t.Fatalf("latency %v", tr.Latency())
	}
	if tr.Root().Service != "root" {
		t.Fatal("root")
	}
	kids := tr.Children(1)
	if len(kids) != 3 || kids[0].Service != "a" || kids[2].Service != "w" {
		t.Fatalf("children order: %v", kids)
	}
	svcs := tr.Services()
	if len(svcs) != 4 || svcs[0] != "a" {
		t.Fatalf("services: %v", svcs)
	}
	if (&Trace{}).Root() != (Span{}) {
		t.Fatal("empty root")
	}
}

func TestValidate(t *testing.T) {
	if err := testTrace().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testTrace()
	bad.Spans[1].Parent = 99
	if bad.Validate() == nil {
		t.Fatal("unknown parent must fail")
	}
	bad = testTrace()
	bad.Spans = append(bad.Spans, span(5, 0, "second-root", 0, 10, false))
	if bad.Validate() == nil {
		t.Fatal("two roots must fail")
	}
	bad = testTrace()
	bad.Spans[2].End = 20 // ends... starts at 30: end < start
	if bad.Validate() == nil {
		t.Fatal("negative span must fail")
	}
	bad = testTrace()
	bad.Spans[2].End = 150 // non-background beyond parent
	if bad.Validate() == nil {
		t.Fatal("child past parent must fail")
	}
	bad = testTrace()
	bad.Spans[1].ID = 3
	if bad.Validate() == nil {
		t.Fatal("duplicate span id must fail")
	}
}

func TestSelfDuration(t *testing.T) {
	tr := testTrace()
	root := tr.Root()
	// Children a[10,40] and b[30,70] overlap → union [10,70] = 60; the
	// background child w is excluded. Self = 100 - 60 = 40.
	if got := tr.SelfDuration(root); got != 40 {
		t.Fatalf("self = %v, want 40", got)
	}
	// Leaf span: self = full duration.
	if got := tr.SelfDuration(tr.Spans[1]); got != 30 { // span 2, "a"
		t.Fatalf("leaf self = %v", got)
	}
	// Disjoint children.
	tr2 := &Trace{ID: 2, Spans: []Span{
		span(1, 0, "root", 0, 100, false),
		span(2, 1, "a", 10, 20, false),
		span(3, 1, "b", 50, 80, false),
	}}
	if got := tr2.SelfDuration(tr2.Root()); got != 60 {
		t.Fatalf("disjoint self = %v, want 60", got)
	}
	// Child clipped to parent interval.
	tr3 := &Trace{ID: 3, Spans: []Span{
		span(1, 0, "root", 0, 100, false),
		span(2, 1, "a", 90, 100, false),
	}}
	if got := tr3.SelfDuration(tr3.Root()); got != 90 {
		t.Fatalf("clipped self = %v", got)
	}
}

func TestCoordinator(t *testing.T) {
	eng := sim.NewEngine(1)
	var got *Trace
	c := NewCoordinator(eng, SinkFunc(func(tr *Trace) { got = tr }))
	id := c.StartTrace("compose", 0)
	if c.PendingCount() != 1 {
		t.Fatal("pending")
	}
	s1 := c.NewSpanID()
	s2 := c.NewSpanID()
	if s1 == s2 {
		t.Fatal("span ids must be unique")
	}
	c.Emit(Span{Trace: id, ID: s1, Service: "root"})
	c.Emit(Span{Trace: 999, ID: s2}) // unknown trace: dropped
	eng.Schedule(50, func() { c.Finish(id, false) })
	eng.RunUntil(100)
	if got == nil || got.Type != "compose" || len(got.Spans) != 1 {
		t.Fatalf("finished trace: %+v", got)
	}
	if got.End != 50 {
		t.Fatalf("end = %v", got.End)
	}
	if c.PendingCount() != 0 || c.Collected != 1 || c.SpansSeen != 1 {
		t.Fatal("counters")
	}
	c.Finish(id, false) // double finish is a no-op
	if c.Collected != 1 {
		t.Fatal("double finish")
	}
}

func TestMultiSink(t *testing.T) {
	n := 0
	s := MultiSink(SinkFunc(func(*Trace) { n++ }), SinkFunc(func(*Trace) { n++ }))
	s.Consume(&Trace{})
	if n != 2 {
		t.Fatal("fan-out")
	}
}

// TestChildrenOrder: children sort by (Start, ID) whatever order the spans
// were emitted in — Par siblings dispatched at one instant tie on Start.
func TestChildrenOrder(t *testing.T) {
	tr := &Trace{ID: 1, Spans: []Span{
		span(5, 1, "e", 20, 30, false),
		span(4, 1, "d", 10, 90, false),
		span(1, 0, "root", 0, 100, false),
		span(3, 1, "c", 10, 20, false),
		span(2, 1, "b", 10, 50, true),
	}}
	var got []SpanID
	for _, k := range tr.Children(1) {
		got = append(got, k.ID)
	}
	if want := []SpanID{2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("children order %v, want %v", got, want)
	}
}

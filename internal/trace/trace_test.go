package trace

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"firm/internal/sim"
)

// nameList is a Names for hand-built traces: a service's ID is its position
// in the list, and its one instance has the same ID and the name + "-1".
type nameList []string

func (n nameList) ServiceName(id uint32) string  { return n[id] }
func (n nameList) InstanceName(id uint32) string { return n[id] + "-1" }

var testNames = nameList{"root", "a", "b", "c", "d", "e", "w"}

func span(id, parent SpanID, svc string, start, end sim.Time, bg bool) Span {
	sid := slices.Index(testNames, svc)
	return Span{ID: id, Parent: parent, Service: uint16(sid), Instance: uint32(sid), Start: start, Dur: uint32(end - start), Background: bg}
}

// build seals spans into a trace through the coordinator's packer.
func build(id TraceID, spans ...Span) *Trace {
	t := &Trace{ID: id, Names: testNames}
	t.Seal(spans)
	return t
}

// children returns parent's child spans in index order.
func children(t *Trace, parent SpanID) []Span {
	var x ChildIndex
	x.Reset(t)
	var out []Span
	for _, i := range x.Of(parent) {
		out = append(out, x.Spans()[i])
	}
	return out
}

func selfDuration(t *Trace, s Span) sim.Time {
	var x ChildIndex
	x.Reset(t)
	return x.SelfDuration(s)
}

func testSpans() []Span {
	return []Span{
		span(1, 0, "root", 0, 100, false),
		span(2, 1, "a", 10, 40, false),
		span(3, 1, "b", 30, 70, false),
		span(4, 1, "w", 50, 120, true),
	}
}

func testTrace() *Trace {
	t := build(1, testSpans()...)
	t.Type, t.Start, t.End = "t", 0, 100
	return t
}

func TestTraceAccessors(t *testing.T) {
	tr := testTrace()
	if tr.Latency() != 100 {
		t.Fatalf("latency %v", tr.Latency())
	}
	name := func(s Span) string { return tr.Names.ServiceName(uint32(s.Service)) }
	if name(tr.Root()) != "root" || tr.Names.InstanceName(tr.Root().Instance) != "root-1" {
		t.Fatal("root")
	}
	kids := children(tr, 1)
	if len(kids) != 3 || name(kids[0]) != "a" || name(kids[2]) != "w" {
		t.Fatalf("children order: %v", kids)
	}
	if (&Trace{}).Root() != (Span{}) || RootIndex(nil) != -1 || (&Trace{}).Len() != 0 {
		t.Fatal("empty root")
	}
	if tr.Len() != 4 || !slices.Equal(tr.AppendSpans(nil), testSpans()) {
		t.Fatalf("sealed spans: %d, %v", tr.Len(), tr.AppendSpans(nil))
	}
}

// TestSpanLayout pins what makes retained traces cheap: a Span is exactly 32
// bytes — a new field is a visible decision — and holds nothing the garbage
// collector has to follow, so span arrays are allocated noscan.
func TestSpanLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Span{}); sz != 32 {
		t.Fatalf("Span is %d bytes, want 32", sz)
	}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		default:
			t.Errorf("%s is a %s: pointer-bearing", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(Span{}), "Span")
}

// TestRootOfRetriedTrace: a retried endpoint root leaves one Parent == 0 span
// per attempt that reached a container. The root is the last-ending one (the
// larger ID on a tie), and Validate accepts the shed attempts before it —
// but not a second root that overlaps the served one or has children.
func TestRootOfRetriedTrace(t *testing.T) {
	tr := build(1,
		span(1, 0, "root", 0, 5, false),  // shed
		span(2, 0, "root", 8, 13, false), // shed
		span(3, 0, "root", 16, 100, false),
		span(4, 3, "a", 20, 60, false),
	)
	if got := tr.Root().ID; got != 3 {
		t.Fatalf("root is span %d, want the served attempt 3", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("shed root attempts must validate: %v", err)
	}
	tie := build(2, span(7, 0, "root", 0, 10, false), span(9, 0, "root", 10, 10, false), span(8, 0, "root", 5, 10, false))
	if got := tie.Root().ID; got != 9 {
		t.Fatalf("tie on End: root is span %d, want the larger ID 9", got)
	}
	overlap := build(3, span(1, 0, "root", 0, 20, false), span(2, 0, "root", 16, 100, false))
	if overlap.Validate() == nil {
		t.Fatal("a second root overlapping the root must fail")
	}
	parented := build(4,
		span(1, 0, "root", 0, 5, false), span(2, 0, "root", 8, 100, false), span(3, 1, "a", 1, 4, false),
	)
	if parented.Validate() == nil {
		t.Fatal("a child of a shed root attempt must fail")
	}
}

func TestValidate(t *testing.T) {
	if err := testTrace().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testSpans()
	bad[1].Parent = 99
	if build(1, bad...).Validate() == nil {
		t.Fatal("unknown parent must fail")
	}
	bad = append(testSpans(), span(5, 0, "root", 0, 10, false))
	if build(1, bad...).Validate() == nil {
		t.Fatal("two roots must fail")
	}
	bad = testSpans()
	bad[2].Dur = 120 // non-background beyond parent
	if build(1, bad...).Validate() == nil {
		t.Fatal("child past parent must fail")
	}
	bad = testSpans()
	bad[1].ID = 3
	if build(1, bad...).Validate() == nil {
		t.Fatal("duplicate span id must fail")
	}
}

func TestSelfDuration(t *testing.T) {
	tr := testTrace()
	// Children a[10,40] and b[30,70] overlap → union [10,70] = 60; the
	// background child w is excluded. Self = 100 - 60 = 40.
	if got := selfDuration(tr, tr.Root()); got != 40 {
		t.Fatalf("self = %v, want 40", got)
	}
	// Leaf span: self = full duration.
	if got := selfDuration(tr, testSpans()[1]); got != 30 { // span 2, "a"
		t.Fatalf("leaf self = %v", got)
	}
	// Disjoint children.
	tr2 := build(2,
		span(1, 0, "root", 0, 100, false),
		span(2, 1, "a", 10, 20, false),
		span(3, 1, "b", 50, 80, false),
	)
	if got := selfDuration(tr2, tr2.Root()); got != 60 {
		t.Fatalf("disjoint self = %v, want 60", got)
	}
	// Child clipped to parent interval.
	tr3 := build(3,
		span(1, 0, "root", 0, 100, false),
		span(2, 1, "a", 90, 100, false),
	)
	if got := selfDuration(tr3, tr3.Root()); got != 90 {
		t.Fatalf("clipped self = %v", got)
	}
}

// lastSink is a Recycler that keeps the trace it consumed last and hands
// back the traces put on its stack.
type lastSink struct {
	stack
	got *Trace
}

func (s *lastSink) Consume(t *Trace) { s.got = t }

// TestCoordinator: a trace runs from StartTrace through Emit to Finish and
// the sink. After Finish its stream sits in the current arena chunk, sized
// exactly, and the span it encoded against is back on the free list; the
// next trace borrows that span, zeroed.
func TestCoordinator(t *testing.T) {
	eng := sim.NewEngine(1)
	var sink lastSink
	c := NewCoordinator(eng, &sink, testNames)
	tr := c.StartTrace("compose")
	if c.PendingCount() != 1 || tr.Names == nil {
		t.Fatal("pending")
	}
	s1 := c.NewSpanID()
	s2 := c.NewSpanID()
	if s1 == s2 {
		t.Fatal("span ids must be unique")
	}
	last := tr.last
	c.Emit(tr, Span{ID: s1, Queued: 3})
	eng.Schedule(50, func() { c.Finish(tr, false) })
	eng.RunUntil(100)
	got := sink.got
	if got != tr || got.Type != "compose" || got.Len() != 1 || got.AppendSpans(nil)[0] != (Span{ID: s1, Queued: 3}) {
		t.Fatalf("finished trace: %+v", got)
	}
	if got.End != 50 {
		t.Fatalf("end = %v", got.End)
	}
	if c.PendingCount() != 0 || c.Collected != 1 || c.SpansSeen != 1 {
		t.Fatal("counters")
	}
	if tr.chunk != 1 || c.cur != 1 || len(c.arena) != 1 {
		t.Fatalf("after Finish: trace in chunk %d, filling %d of %d; want the one chunk", tr.chunk, c.cur, len(c.arena))
	}
	if ch := c.arena[0]; ch.live != 1 || len(ch.buf) != len(tr.packed) || cap(tr.packed) != len(tr.packed) || !overlaps(tr.packed, ch.buf) {
		t.Fatalf("after Finish: %d live, %d of %d chunk bytes used; want the %d-byte stream alone in it",
			ch.live, len(ch.buf), cap(ch.buf), len(tr.packed))
	}
	if tr.last != nil || len(c.lasts) != 1 || c.lasts[0] != last {
		t.Fatalf("after Finish: last %v, %d free spans; want the trace's back", tr.last, len(c.lasts))
	}
	next := c.StartTrace("compose")
	if len(c.lasts) != 0 || next.last != last || *next.last != (Span{}) {
		t.Fatalf("StartTrace did not reuse the freed span: %d free, last %p (freed %p) = %+v",
			len(c.lasts), next.last, last, *next.last)
	}
}

// TestPlainSinkOwnsStreams: a sink that gives no trace back gets each
// trace with its own scratch buffer. The coordinator copies nothing into
// its arena and lists nothing, so it keeps no share of a trace the sink
// may hold or drop.
func TestPlainSinkOwnsStreams(t *testing.T) {
	for _, sink := range []Sink{nil, SinkFunc(func(*Trace) {})} {
		c := NewCoordinator(sim.NewEngine(1), sink, testNames)
		spans := randomSpans(rand.New(rand.NewSource(1)), 20)
		tr := emitAll(c, spans)
		if tr.chunk != 0 || len(c.arena) != 0 || len(tr.packed) == 0 {
			t.Fatalf("sink %T: trace in chunk %d, %d chunks; want its own buffer", sink, tr.chunk, len(c.arena))
		}
		for k, class := range c.bufs {
			for _, b := range class {
				if overlaps(b, tr.packed) {
					t.Fatalf("sink %T: the trace's stream is listed in class %d", sink, k)
				}
			}
		}
		if !slices.Equal(tr.AppendSpans(nil), spans) {
			t.Fatalf("sink %T: stream does not decode to its spans", sink)
		}
	}
}

// TestNewSpanIDPanicsOnWrap: the 32-bit span counter must not wrap to 0, the
// value a root span carries as its Parent.
func TestNewSpanIDPanicsOnWrap(t *testing.T) {
	c := NewCoordinator(sim.NewEngine(1), nil, testNames)
	c.nextSpan = math.MaxUint32 - 1
	if id := c.NewSpanID(); id != math.MaxUint32 {
		t.Fatalf("last span id = %d, want %d", id, uint32(math.MaxUint32))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewSpanID wrapped to 0 without panicking")
		}
	}()
	c.NewSpanID()
}

// TestChildrenOrder: children sort by (Start, ID) whatever order the spans
// were emitted in — Par siblings dispatched at one instant tie on Start.
func TestChildrenOrder(t *testing.T) {
	tr := build(1,
		span(5, 1, "e", 20, 30, false),
		span(4, 1, "d", 10, 90, false),
		span(1, 0, "root", 0, 100, false),
		span(3, 1, "c", 10, 20, false),
		span(2, 1, "b", 10, 50, true),
	)
	var got []SpanID
	for _, k := range children(tr, 1) {
		got = append(got, k.ID)
	}
	if want := []SpanID{2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("children order %v, want %v", got, want)
	}
}

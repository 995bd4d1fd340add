package trace

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"firm/internal/sim"
)

// stack is a Recycler that keeps nothing it consumes and hands back the
// traces put on it, the last first.
type stack []*Trace

func (s *stack) Consume(*Trace) {}

func (s *stack) Reclaim() *Trace {
	n := len(*s)
	if n == 0 {
		return nil
	}
	t := (*s)[n-1]
	*s = (*s)[:n-1]
	return t
}

// emitAll runs one request through c: a trace started with the span hint,
// spans emitted in order, finished.
func emitAll(c *Coordinator, hint int, spans []Span) *Trace {
	t := c.StartTrace("x", hint)
	for _, s := range spans {
		c.Emit(t, s)
	}
	c.Finish(t, false)
	return t
}

// randomSpans returns n spans, mostly a call chain's small steps, with one
// in eight a jump to random values that takes the widest varints.
func randomSpans(rng *rand.Rand, n int) []Span {
	spans := make([]Span, n)
	var s Span
	for i := range spans {
		if rng.Intn(8) == 0 {
			s = Span{ID: SpanID(rng.Uint32()), Parent: SpanID(rng.Uint32()), Instance: rng.Uint32(),
				Service: uint16(rng.Uint32()), Background: rng.Intn(2) == 0,
				Start: sim.Time(rng.Uint64()), Dur: rng.Uint32(), Queued: rng.Uint32()}
		} else {
			s.Parent = s.ID
			s.ID += SpanID(1 + rng.Intn(4))
			s.Instance += uint32(rng.Intn(5)) - 2
			s.Start += sim.Time(rng.Intn(2000))
			s.Dur, s.Queued = uint32(rng.Intn(5000)), uint32(rng.Intn(100))
		}
		spans[i] = s
	}
	return spans
}

// TestCoordinatorBufferClasses pins the free-list policy: StartTrace lends
// the smallest power of two that holds spanHint × bytesPerSpan plus one
// span; a released trace's buffer goes on the list of its size class when
// its trace is reclaimed; Emit moves an outgrown stream to a buffer twice
// the size and lists the old one; and a lookup takes its own class, else
// the class above.
func TestCoordinatorBufferClasses(t *testing.T) {
	var free stack
	c := NewCoordinator(sim.NewEngine(1), &free, testNames)
	if a := c.StartTrace("x", 0); cap(a.packed) != 128 || len(a.packed) != 0 {
		t.Fatalf("hint 0: len %d cap %d, want an empty 128-byte buffer", len(a.packed), cap(a.packed))
	}
	if b := c.StartTrace("x", 10); cap(b.packed) != 256 {
		t.Fatalf("hint 10: cap %d, want 256 (170 bytes needed)", cap(b.packed))
	}
	// Spans are emitted until the stream outgrows its 128 bytes and moves.
	g := c.StartTrace("x", 0)
	small := g.packed
	var spans []Span
	for _, s := range randomSpans(rand.New(rand.NewSource(1)), 100) {
		if cap(g.packed) != cap(small) {
			break
		}
		c.Emit(g, s)
		spans = append(spans, s)
	}
	c.Finish(g, false)
	if cap(g.packed) != 256 || len(c.bufs) <= 7 || len(c.bufs[7]) != 1 || !overlaps(c.bufs[7][0], small) {
		t.Fatalf("after growth: cap %d, free lists %v; want a 256-byte stream and the 128-byte buffer listed", cap(g.packed), c.bufs)
	}
	var want Trace
	want.Seal(spans)
	if !bytes.Equal(g.packed, want.packed) {
		t.Fatal("the moved stream differs from Seal's")
	}
	// Reclaiming g lists its buffer; hint 0 then takes the 128-byte one back,
	// and, with class 7 empty, a second hint-0 trace takes g's from above.
	grown := g.packed
	free = append(free, g)
	if h := c.StartTrace("x", 0); h != g || !overlaps(h.packed, small) {
		t.Fatalf("reclaimed trace: %v, cap %d; want g in the 128-byte buffer", h == g, cap(h.packed))
	}
	if k := c.StartTrace("x", 0); !overlaps(k.packed, grown) {
		t.Fatalf("with class 7 empty, hint 0 got cap %d, not g's old %d-byte buffer", cap(k.packed), cap(grown))
	}
}

// TestEmitMatchesSeal: random span sequences emitted through a coordinator,
// into recycled traces whose storage has a random capacity (none, and one
// byte short of a size class among them), pack the bytes Seal packs and
// decode back bit for bit. Throughout, no buffer on the coordinator's free
// lists is one a trace still holds — a finished trace, or a released one
// not yet reclaimed.
func TestEmitMatchesSeal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var free stack
	c := NewCoordinator(sim.NewEngine(1), &free, testNames)
	var held []*Trace
	for range 400 {
		r := &Trace{}
		switch rng.Intn(4) {
		case 0: // no storage
		case 1:
			k := 6 + rng.Intn(9)
			r.packed = make([]byte, rng.Intn(64), 1<<k-1)
		case 2:
			r.packed = make([]byte, 0, 1<<(6+rng.Intn(9)))
		default:
			r.packed = make([]byte, rng.Intn(8), 8+rng.Intn(5000))
		}
		free = append(free, r)
		spans := randomSpans(rng, rng.Intn(300))
		got := emitAll(c, rng.Intn(len(spans)+2), spans)
		var want Trace
		want.Seal(spans)
		if !bytes.Equal(got.packed, want.packed) || got.Len() != len(spans) {
			t.Fatalf("%d spans: emitted %d bytes, Seal %d; the streams differ", len(spans), len(got.packed), len(want.packed))
		}
		if dec := got.AppendSpans(nil); !slices.Equal(dec, spans) {
			t.Fatalf("emitted round trip:\nemitted %v\ndecoded %v", spans, dec)
		}
		held = append(held, got)
		for len(held) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(held))
			free = append(free, held[i])
			held = slices.Delete(held, i, i+1)
		}
		for _, class := range c.bufs {
			for _, b := range class {
				for _, x := range slices.Concat(held, free) {
					if overlaps(b, x.packed) {
						t.Fatalf("a listed %d-byte buffer belongs to trace %d", cap(b), x.ID)
					}
				}
			}
		}
	}
}

// overlaps reports whether a's and b's storage (to their capacities) share
// a byte.
func overlaps(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b)) && pb < pa+uintptr(cap(a))
}

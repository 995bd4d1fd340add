package trace

import (
	"bytes"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
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

// emitAll runs one request through c: a trace started, spans emitted in
// order, finished.
func emitAll(c *Coordinator, spans []Span) *Trace {
	t := c.StartTrace("x")
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

// TestCoordinatorBufferClasses pins the scratch policy: a started trace
// holds no buffer; its first Emit lends a 128-byte one; Emit moves an
// outgrown stream to a buffer twice the size and lists the old one; Finish
// copies the stream into the arena and lists the scratch at once, so
// reclaiming the trace lists nothing; a lookup takes its own class, else
// the class above; and a stream past the copy limit keeps its scratch
// buffer, which goes on the free lists when its trace is reclaimed.
func TestCoordinatorBufferClasses(t *testing.T) {
	var free stack
	c := NewCoordinator(sim.NewEngine(1), &free, testNames)
	rng := rand.New(rand.NewSource(1))
	g := c.StartTrace("x")
	if g.packed != nil {
		t.Fatalf("a started trace holds a %d-byte buffer, want none", cap(g.packed))
	}
	c.Emit(g, Span{ID: 1})
	small := g.packed
	if cap(small) != scratchBytes {
		t.Fatalf("first Emit lent %d bytes, want %d", cap(small), scratchBytes)
	}
	// Spans are emitted until the stream outgrows its 128 bytes and moves.
	spans := []Span{{ID: 1}}
	for _, s := range randomSpans(rng, 100) {
		if cap(g.packed) != cap(small) {
			break
		}
		c.Emit(g, s)
		spans = append(spans, s)
	}
	scratch := g.packed
	if cap(scratch) != 2*scratchBytes || len(c.bufs) <= 7 || len(c.bufs[7]) != 1 || !overlaps(c.bufs[7][0], small) {
		t.Fatalf("after growth: cap %d, free lists %v; want a 256-byte stream and the 128-byte buffer listed", cap(scratch), c.bufs)
	}
	c.Finish(g, false)
	var want Trace
	want.Seal(spans)
	if !bytes.Equal(g.packed, want.packed) || cap(g.packed) != len(g.packed) || g.chunk == 0 || g.chunk != c.cur || !overlaps(g.packed, c.arena[g.chunk-1].buf) {
		t.Fatalf("finished stream: %d bytes, cap %d, in chunk %d of %d; want Seal's %d bytes, copied exactly into the current chunk",
			len(g.packed), cap(g.packed), g.chunk, len(c.arena), len(want.packed))
	}
	if len(c.bufs) <= 8 || len(c.bufs[8]) != 1 || !overlaps(c.bufs[8][0], scratch) {
		t.Fatalf("after Finish: free lists %v; want the 256-byte scratch listed", c.bufs)
	}
	// Reclaiming g lists nothing: its stream is in the arena. The next
	// trace's first Emit takes the 128-byte buffer back, and, with class 7
	// empty, a second pending trace's takes the 256-byte scratch from above.
	free = append(free, g)
	h := c.StartTrace("x")
	if h != g || len(c.bufs[7]) != 1 || len(c.bufs[8]) != 1 {
		t.Fatalf("reclaimed trace: %v, free lists %v; want g, and nothing listed", h == g, c.bufs)
	}
	c.Emit(h, Span{ID: 1})
	k := c.StartTrace("x")
	c.Emit(k, Span{ID: 1})
	if !overlaps(h.packed, small) || !overlaps(k.packed, scratch) {
		t.Fatalf("first Emits got caps %d and %d, not the listed 128- and 256-byte buffers", cap(h.packed), cap(k.packed))
	}
	// A stream past the copy limit keeps its scratch buffer.
	for len(k.packed) <= copyLimit {
		c.Emit(k, randomSpans(rng, 1)[0])
	}
	big := k.packed
	c.Finish(k, false)
	if k.chunk != 0 || !overlaps(k.packed, big) || cap(big) <= copyLimit {
		t.Fatalf("a %d-byte stream went into arena chunk %d", len(big), k.chunk)
	}
	free = append(free, k)
	c.StartTrace("x")
	if class := c.bufs[bits.Len(uint(cap(big)))-1]; len(class) == 0 || !overlaps(class[len(class)-1], big) {
		t.Fatalf("reclaiming the long trace did not list its %d-byte buffer", cap(big))
	}
}

// TestEmitMatchesSeal: random span sequences emitted through a coordinator,
// into recycled traces — new ones whose storage has a random capacity
// (none, and one byte short of a size class among them), or ones it
// finished before, given back in random order — pack the bytes Seal packs
// and decode back bit for bit.
// Throughout, no buffer on the coordinator's free lists, and no spare arena
// chunk, is one a trace still holds — a finished trace, or a released one
// not yet reclaimed — and every held trace still decodes to its spans.
func TestEmitMatchesSeal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var free stack
	c := NewCoordinator(sim.NewEngine(1), &free, testNames)
	var held []*Trace
	emitted := map[*Trace][]Span{}
	for range 400 {
		if len(free) > 8 || rng.Intn(2) == 0 {
			// Reclaim a trace released earlier, in random order.
			rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		} else {
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
		}
		spans := randomSpans(rng, rng.Intn(300))
		got := emitAll(c, spans)
		var want Trace
		want.Seal(spans)
		if !bytes.Equal(got.packed, want.packed) || got.Len() != len(spans) {
			t.Fatalf("%d spans: emitted %d bytes, Seal %d; the streams differ", len(spans), len(got.packed), len(want.packed))
		}
		if dec := got.AppendSpans(nil); !slices.Equal(dec, spans) {
			t.Fatalf("emitted round trip:\nemitted %v\ndecoded %v", spans, dec)
		}
		held = append(held, got)
		emitted[got] = spans
		for len(held) > 0 && (len(held) > 16 || rng.Intn(3) == 0) {
			i := rng.Intn(len(held))
			free = append(free, held[i])
			held = slices.Delete(held, i, i+1)
		}
		listed := slices.Concat(c.bufs...)
		for _, k := range c.spare {
			listed = append(listed, c.arena[k-1].buf)
		}
		for _, b := range listed {
			for _, x := range slices.Concat(held, free) {
				if overlaps(b, x.packed) {
					t.Fatalf("a listed %d-byte buffer holds trace %d's stream", cap(b), x.ID)
				}
			}
		}
		for _, x := range held {
			if !slices.Equal(x.AppendSpans(nil), emitted[x]) {
				t.Fatalf("held trace %d no longer decodes to its %d spans", x.ID, len(emitted[x]))
			}
		}
	}
}

// TestCoordinatorsInParallel: coordinators share no state, arena chunks
// and free lists included, so each testbed's tracer can run on its own
// goroutine. Two run side by side, each recycling its traces through its
// own chunks; under the race detector a shared chunk or list would show.
func TestCoordinatorsInParallel(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var free stack
			c := NewCoordinator(sim.NewEngine(1), &free, testNames)
			var held []*Trace
			for range 300 {
				spans := randomSpans(rng, rng.Intn(200))
				tr := emitAll(c, spans)
				if !slices.Equal(tr.AppendSpans(nil), spans) {
					t.Errorf("coordinator %d: trace %d does not decode to its %d spans", g, tr.ID, len(spans))
					return
				}
				if held = append(held, tr); len(held) > 8 {
					free, held = append(free, held[0]), held[1:]
				}
			}
		}()
	}
	wg.Wait()
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

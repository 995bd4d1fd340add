package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"unsafe"

	"firm/internal/sim"
)

// spanRecord is the fuzzer's encoding of one Span: its fields little-endian,
// in declaration order, Background as the low bit of one byte.
const spanRecord = 4 + 4 + 4 + 2 + 1 + 8 + 4 + 4

func spansToBytes(spans []Span) []byte {
	var b []byte
	for _, s := range spans {
		b = binary.LittleEndian.AppendUint32(b, uint32(s.ID))
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Parent))
		b = binary.LittleEndian.AppendUint32(b, s.Instance)
		b = binary.LittleEndian.AppendUint16(b, s.Service)
		bg := byte(0)
		if s.Background {
			bg = 1
		}
		b = append(b, bg)
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Start))
		b = binary.LittleEndian.AppendUint32(b, s.Dur)
		b = binary.LittleEndian.AppendUint32(b, s.Queued)
	}
	return b
}

func bytesToSpans(b []byte) []Span {
	var spans []Span
	for ; len(b) >= spanRecord; b = b[spanRecord:] {
		spans = append(spans, Span{
			ID:         SpanID(binary.LittleEndian.Uint32(b)),
			Parent:     SpanID(binary.LittleEndian.Uint32(b[4:])),
			Instance:   binary.LittleEndian.Uint32(b[8:]),
			Service:    binary.LittleEndian.Uint16(b[12:]),
			Background: b[14]&1 != 0,
			Start:      sim.Time(binary.LittleEndian.Uint64(b[15:])),
			Dur:        binary.LittleEndian.Uint32(b[23:]),
			Queued:     binary.LittleEndian.Uint32(b[27:]),
		})
	}
	return spans
}

// FuzzSpanPack: any span sequence survives Seal → AppendSpans bit for bit,
// in order; emitting it through a coordinator, into a recycled trace whose
// storage the sequence also picks, and finishing it — into the arena, when
// the stream is within the copy limit — leaves the very bytes Seal packs;
// and a trace resealed with other spans, into its reused storage, decodes
// to those.
func FuzzSpanPack(f *testing.F) {
	const max32 = math.MaxUint32
	f.Add([]byte{}) // the empty trace
	f.Add(spansToBytes(testSpans()))
	f.Add(spansToBytes([]Span{
		{ID: 0, Parent: 0},                      // both at 0
		{ID: 7, Parent: 7},                      // self-parented
		{ID: max32, Parent: max32},              // self at the top
		{ID: 1, Parent: max32},                  // farthest parent above
		{ID: max32, Parent: 1},                  // farthest parent below
		{ID: 0, Parent: max32, Instance: max32}, // widest ID and Instance deltas
		{ID: 3, Service: math.MaxUint16, Background: true},
		{ID: 4, Service: 0, Background: true},
		{ID: 5, Service: math.MaxUint16},
	}))
	f.Add(spansToBytes([]Span{
		{ID: 1, Start: math.MinInt64, Dur: max32, Queued: max32},
		{ID: 2, Start: math.MaxInt64, Dur: 0, Queued: 0}, // +MaxUint64 wraps
		{ID: 3, Start: math.MinInt64, Dur: max32},        // and back down
		{ID: 4, Start: -1, Queued: max32},                // negative delta
		{ID: 5, Start: 0},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		spans := bytesToSpans(data)
		tr := &Trace{}
		tr.Seal(spans)
		if tr.Len() != len(spans) {
			t.Fatalf("Len = %d, sealed %d spans", tr.Len(), len(spans))
		}
		prefix := []Span{{ID: 42}}
		got := tr.AppendSpans(slices.Clone(prefix))
		if !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], spans) {
			t.Fatalf("round trip:\nsealed  %v\ndecoded %v", spans, got[1:])
		}
		// The leftover bytes pick the recycled storage.
		recycled := &Trace{}
		if tail := data[len(spans)*spanRecord:]; len(tail) > 0 {
			recycled.packed = make([]byte, 0, int(tail[0])<<(len(tail)%8))
		}
		c := NewCoordinator(sim.NewEngine(1), &stack{recycled}, testNames)
		emitted := emitAll(c, spans)
		if emitted != recycled || !bytes.Equal(emitted.packed, tr.packed) || emitted.Len() != len(spans) {
			t.Fatalf("emitted %d spans into %d bytes, sealed %d into %d: streams differ",
				emitted.Len(), len(emitted.packed), tr.Len(), len(tr.packed))
		}
		if n := len(emitted.packed); n > 0 && n <= copyLimit && (emitted.chunk != 1 || !overlaps(emitted.packed, c.arena[0].buf)) {
			t.Fatalf("a %d-byte stream was not finished into the arena", n)
		}
		// Reseal with the spans reversed, into the storage just used.
		slices.Reverse(spans)
		tr.Seal(spans)
		if got := tr.AppendSpans(nil); !slices.Equal(got, spans) {
			t.Fatalf("resealed round trip:\nsealed  %v\ndecoded %v", spans, got)
		}
	})
}

// TestTraceLayout pins the sealed trace's header inside the 96-byte size
// class: the store retains one per request, so a field that pushes it to
// 112 bytes is a visible decision.
func TestTraceLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Trace{}); sz > 96 {
		t.Fatalf("Trace is %d bytes, want <= 96", sz)
	}
}

// TestSealAllocs: resealing a trace with no more bytes than its storage
// holds allocates nothing.
func TestSealAllocs(t *testing.T) {
	spans := testSpans()
	tr := &Trace{}
	tr.Seal(spans)
	if n := testing.AllocsPerRun(20, func() { tr.Seal(spans[:2]); tr.Seal(spans) }); n != 0 {
		t.Fatalf("reseal into reused storage: %v allocs, want 0", n)
	}
}

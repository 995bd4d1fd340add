package trace

import (
	"encoding/binary"
	"slices"

	"firm/internal/sim"
)

// A sealed trace keeps its spans as one byte stream instead of 32 fixed
// bytes each: a trace is read at most a few times after it is sealed, and
// the trace store retains every trace of its look-back window.
//
// The stream is the spans in emission order, seven unsigned varints
// (encoding/binary's format) per span. Each value is the zigzag-coded
// difference from the previous span's (the zero Span's, for the first):
//
//	ID
//	Parent, relative to ID: 0 for no parent, else zigzag(ID-Parent)+1
//	Instance
//	Service<<1 | Background
//	Start
//	Dur
//	Queued
//
// Spans are emitted as their calls respond, so neighbours in the stream are
// close in time and in the call tree: most values take one or two bytes,
// and a span packs into ≈ 11. Every difference is taken in 64 bits (Start's
// may wrap, and wraps back on decode), so every Span round-trips bit for
// bit.

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// serviceBits is Service<<1 | Background.
func serviceBits(s *Span) int64 {
	v := int64(s.Service) << 1
	if s.Background {
		v |= 1
	}
	return v
}

// parentVal is s's Parent value: 0 for none, else zigzag(ID-Parent)+1.
func parentVal(s *Span) uint64 {
	if s.Parent == 0 {
		return 0
	}
	return zigzag(int64(s.ID)-int64(s.Parent)) + 1
}

// maxSpanBytes bounds one span's packed size: seven varints.
const maxSpanBytes = 7 * binary.MaxVarintLen64

// Seal packs spans into t as its sealed representation — the one the
// Coordinator's Finish writes and every reader decodes. A trace a sink has
// seen is immutable: only the trace's owner seals it (the coordinator, or a
// test building one).
//
// The stream is encoded once, into scratch, then copied into exactly the
// bytes it needs: t's packed storage when it is large enough, else one new
// slice. scratch grows to fit the worst case and is returned for the next
// Seal to reuse; nil is a valid scratch. Sizing the stream in a pass of its
// own and then writing it in place cost ≈ 1.4× as much: 32 against 22 ns
// per span, sealing the 63-span app-request trace on a 2-core Xeon.
//
//firmvet:noalloc
func (t *Trace) Seal(spans []Span, scratch []byte) []byte {
	if need := len(spans) * maxSpanBytes; cap(scratch) < need {
		scratch = make([]byte, need)
	}
	b, i := scratch[:cap(scratch)], 0
	var zero Span
	prev := &zero
	for k := range spans {
		s := &spans[k]
		i = putUvarint(b, i, zigzag(int64(s.ID)-int64(prev.ID)))
		i = putUvarint(b, i, parentVal(s))
		i = putUvarint(b, i, zigzag(int64(s.Instance)-int64(prev.Instance)))
		i = putUvarint(b, i, zigzag(serviceBits(s)-serviceBits(prev)))
		i = putUvarint(b, i, zigzag(int64(s.Start-prev.Start)))
		i = putUvarint(b, i, zigzag(int64(s.Dur)-int64(prev.Dur)))
		i = putUvarint(b, i, zigzag(int64(s.Queued)-int64(prev.Queued)))
		prev = s
	}
	if cap(t.packed) < i {
		t.packed = make([]byte, i)
	}
	t.packed = t.packed[:i]
	copy(t.packed, b[:i])
	t.n, t.pending = uint32(len(spans)), nil
	return scratch
}

// putUvarint writes x as a varint at b[i:] and returns the index after it.
// The one-byte case is inlined into the caller.
func putUvarint(b []byte, i int, x uint64) int {
	if x < 0x80 {
		b[i] = byte(x)
		return i + 1
	}
	return putUvarintLong(b, i, x)
}

func putUvarintLong(b []byte, i int, x uint64) int {
	for x >= 0x80 {
		b[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	b[i] = byte(x)
	return i + 1
}

// Len returns the number of spans in the sealed trace.
func (t *Trace) Len() int { return int(t.n) }

// AppendSpans decodes the sealed trace's spans, in emission order, onto
// dst and returns the extended slice. A structured reader decodes through
// ChildIndex.Reset instead, which keeps the spans in storage it reuses.
//
//firmvet:noalloc
func (t *Trace) AppendSpans(dst []Span) []Span {
	t.check()
	dst = slices.Grow(dst, int(t.n))
	b := t.packed
	var s Span
	var u uint64
	for i := 0; i < len(b); {
		u, i = uvarint(b, i)
		s.ID = SpanID(int64(s.ID) + unzigzag(u))
		u, i = uvarint(b, i)
		s.Parent = 0
		if u != 0 {
			s.Parent = SpanID(int64(s.ID) - unzigzag(u-1))
		}
		u, i = uvarint(b, i)
		s.Instance = uint32(int64(s.Instance) + unzigzag(u))
		u, i = uvarint(b, i)
		svc := serviceBits(&s) + unzigzag(u)
		s.Service, s.Background = uint16(svc>>1), svc&1 != 0
		u, i = uvarint(b, i)
		s.Start += sim.Time(unzigzag(u))
		u, i = uvarint(b, i)
		s.Dur = uint32(int64(s.Dur) + unzigzag(u))
		u, i = uvarint(b, i)
		s.Queued = uint32(int64(s.Queued) + unzigzag(u))
		dst = append(dst, s)
	}
	return dst
}

// uvarint decodes the varint at b[i:], returning it and the index after it.
// The one-byte case — most values — is inlined into the caller.
// encoding/binary's Uvarint and PutUvarint, which reslice per value, made
// decoding ≈ 1.7× and sealing ≈ 1.3× slower.
func uvarint(b []byte, i int) (uint64, int) {
	if c := b[i]; c < 0x80 {
		return uint64(c), i + 1
	}
	return uvarintLong(b, i)
}

func uvarintLong(b []byte, i int) (uint64, int) {
	var x uint64
	for s := uint(0); ; s += 7 {
		c := b[i]
		i++
		if c < 0x80 {
			return x | uint64(c)<<s, i
		}
		x |= uint64(c&0x7f) << s
	}
}

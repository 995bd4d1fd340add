// Package ring is the tree's one FIFO. Every bounded history FIRM keeps in
// arrival order — the trace store, telemetry series, the request meter, the
// replay buffer R of Alg. 3, the detector's sliding windows — and every
// container's request queue is a Ring.
package ring

// Ring is a growable circular queue with indexed access in arrival order.
// Storage doubles from one slot (or from New's eager size), is clamped to
// the bound, and is unrolled on growth, so until the first wrap storage
// order is arrival order. A bounded
// ring that is full overwrites its oldest element on Push.
//
// Push and Pop hand out slots, not copies: a slot keeps whatever its last
// tenant left there until it is written again, so a caller can reuse memory
// the tenant owned, and must clear references the collector should not see
// through it.
//
// The zero value is an empty, unbounded ring that allocates on its first
// Push.
type Ring[T any] struct {
	buf   []T
	head  int // storage index of the oldest element
	n     int
	bound int // 0 = unbounded
}

// New returns an empty ring holding at most bound elements (0 = unbounded),
// with size slots allocated up front.
func New[T any](bound, size int) Ring[T] {
	if bound < 0 || size < 0 {
		panic("ring: negative bound or size")
	}
	if bound > 0 {
		size = min(size, bound)
	}
	return Ring[T]{buf: make([]T, size), bound: bound}
}

// Len returns the number of elements held.
func (r *Ring[T]) Len() int { return r.n }

// full reports whether a bounded ring holds bound elements, so the next Push
// overwrites the oldest.
func (r *Ring[T]) full() bool { return r.bound > 0 && r.n == r.bound }

// At returns the slot of the i-th oldest element, 0 <= i < Len().
//
//firmvet:noalloc
func (r *Ring[T]) At(i int) *T {
	if uint(i) >= uint(r.n) {
		panic("ring: index out of range")
	}
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// Slot returns storage slot k, 0 <= k < Len(), in storage order. On a ring
// that has never popped, those slots are exactly the elements held: for
// readers that do not care which element is oldest.
func (r *Ring[T]) Slot(k int) *T {
	if uint(k) >= uint(r.n) {
		panic("ring: slot out of range")
	}
	return &r.buf[k]
}

// Push appends one element and returns its slot, which still holds what its
// last tenant left there — on a full ring, the oldest element, now evicted.
// The pointer is valid until the next Push.
//
//firmvet:noalloc
func (r *Ring[T]) Push() *T {
	if r.full() {
		r.Pop() // the oldest's slot is where the newest goes
	} else if r.n == len(r.buf) {
		r.grow()
	}
	r.n++
	return r.At(r.n - 1)
}

// Pop removes the oldest element and returns its slot.
//
//firmvet:noalloc
func (r *Ring[T]) Pop() *T {
	if r.n == 0 {
		panic("ring: Pop of an empty ring")
	}
	s := &r.buf[r.head]
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return s
}

// Reset empties the ring, keeping its storage and bound: it is then the ring
// New(bound, len(storage)) returns, and storage order starts again at slot 0.
// Every slot is zeroed, so the collector sees nothing through past tenants.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// grow doubles full storage, clamped to the bound, unrolling it to start at
// index zero.
func (r *Ring[T]) grow() {
	size := max(2*len(r.buf), 1)
	if r.bound > 0 {
		size = min(size, r.bound)
	}
	grown := make([]T, size)
	k := copy(grown, r.buf[r.head:])
	copy(grown[k:], r.buf[:r.head])
	r.buf, r.head = grown, 0
}

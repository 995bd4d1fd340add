package detect

import "math/bits"

// fifo is the incremental detector's one queue: a growable ring with
// indexed access in arrival order. Capacity is zero or a power of two, so
// an index is a mask, not a division. push and pop hand out the slot, not a
// copy: a popped slot keeps what its tenant owned (locEntry.contribs'
// backing array) for the next push to reuse. The zero value is an empty
// queue.
type fifo[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int
}

// newFIFO returns an empty queue with room for at least capHint elements.
func newFIFO[T any](capHint int) fifo[T] {
	return fifo[T]{buf: make([]T, 1<<bits.Len(uint(max(capHint, 16)-1)))}
}

func (q *fifo[T]) len() int { return q.n }

// at returns the i-th oldest element's slot, 0 <= i < len().
func (q *fifo[T]) at(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// push appends one element and returns its slot, which still holds whatever
// the slot's last tenant left there. The pointer is valid until the next
// push.
//
//firmvet:noalloc
func (q *fifo[T]) push() *T {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.n++
	return q.at(q.n - 1)
}

// pop removes the oldest element and returns its slot, for the caller to
// read and to clear of anything the collector should not see through it.
//
//firmvet:noalloc
func (q *fifo[T]) pop() *T {
	s := &q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return s
}

// grow doubles a full ring, unrolling it to start at index zero.
func (q *fifo[T]) grow() {
	grown := make([]T, max(2*len(q.buf), 16))
	k := copy(grown, q.buf[q.head:])
	copy(grown[k:], q.buf[:q.head])
	q.buf, q.head = grown, 0
}

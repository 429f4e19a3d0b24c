package rmi

// fifo is a first-in-first-out queue on a ring. Both ends of a connection
// keep one per stream — the client's replies awaited, the server lane's
// requests to dispatch — and push and pop it once per call, for ever: a ring
// that stays short stays in the array it has, where re-slicing the head away
// and appending walks through its capacity and reallocates every few calls.
// A popped slot is cleared, so the queue never pins what it handed out. The
// zero value is an empty queue; it is not safe for concurrent use.
type fifo[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the oldest item
	n    int // items queued
}

func (q *fifo[T]) len() int { return q.n }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pop removes and returns the oldest item; the queue must not be empty.
func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the ring, moving the items to the front of the new array.
func (q *fifo[T]) grow() {
	buf := make([]T, max(8, 2*len(q.buf)))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

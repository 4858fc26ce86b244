package sim

// FIFO is a first-in first-out queue for the simulator's wait lines. Pop
// is O(1), and once the queue has grown to its working depth it allocates
// nothing: popped slots are reused. A plain slice popped by re-slicing from
// the front walks off its backing array, so under sustained contention
// every append reallocates it; one shifted down on every pop costs O(depth)
// per pop, which is quadratic for a burst of thousands of queued requests.
// The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T // buf[head:] is the queue, oldest first
	head int
}

// Len reports how many items are queued.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the back.
func (q *FIFO[T]) Push(v T) {
	// When the backing array is full and at least half of it is popped
	// slots, compact instead of growing: the shift moves at most as many
	// items as it frees slots, so it is O(1) amortized per push.
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:]) // drop the stale copies so they pin nothing
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the front item. It panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // the slot no longer pins v
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

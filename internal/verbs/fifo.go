package verbs

// fifo is a first-in first-out queue in a ring that keeps its storage: a
// push into a full ring doubles it, and nothing else allocates or copies.
// (A bare `q = q[1:]` followed by append walks off the end of its array and
// reallocates every cap(q) pushes for as long as the queue lives; `q = nil`
// on empty regrows 1, 2, 4 after every drain.)
type fifo[T any] struct {
	buf  []T // a power of two long
	head int // index of the oldest entry
	n    int // entries queued
}

func (f *fifo[T]) push(v T) {
	if f.n == len(f.buf) {
		buf := make([]T, max(4, 2*len(f.buf)))
		f.copyTo(buf)
		f.buf, f.head = buf, 0
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// front returns the oldest entry; the queue must not be empty.
func (f *fifo[T]) front() T { return f.buf[f.head] }

// drop removes the k oldest entries.
func (f *fifo[T]) drop(k int) {
	f.head = (f.head + k) & (len(f.buf) - 1)
	f.n -= k
}

// copyTo copies the oldest entries, in order, into dst and returns how many
// fitted.
func (f *fifo[T]) copyTo(dst []T) int {
	k := min(len(dst), f.n)
	first := copy(dst[:k], f.buf[f.head:])
	copy(dst[first:k], f.buf)
	return k
}

package verbs

import "testing"

// TestFifoKeepsStorage: entries leave in the order they entered, singly and
// in batches, across doublings and wrap-around; a queue that hovers at a
// fixed depth (a receive queue reposted as it completes) or drains to empty
// again and again (a polled CQ) allocates nothing once it has grown.
func TestFifoKeepsStorage(t *testing.T) {
	var f fifo[int]
	next, want := 0, 0
	pop := func(k int) {
		got := make([]int, k)
		if n := f.copyTo(got); n != k || f.front() != want {
			t.Fatalf("copyTo = %d entries, front %d; want %d, front %d", n, f.front(), k, want)
		}
		f.drop(k)
		for _, v := range got {
			if v != want {
				t.Fatalf("popped %d, want %d", v, want)
			}
			want++
		}
	}
	push := func(k int) {
		for ; k > 0; k-- {
			f.push(next)
			next++
		}
	}
	const depth = 100
	push(depth)
	for i := 0; i < 10*depth; i++ { // steady depth, one out one in
		pop(1)
		push(1)
	}
	for i := 0; i < 50; i++ { // drained in batches that straddle the wrap
		pop(7)
		push(7)
	}
	pop(depth)
	if f.n != 0 || len(f.buf) != 128 {
		t.Fatalf("%d entries left in a ring of %d, want 0 in 128", f.n, len(f.buf))
	}
	if n := f.copyTo(make([]int, 3)); n != 0 {
		t.Errorf("copyTo on an empty queue = %d", n)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < 4*depth; i++ {
			f.push(i)
			f.push(i)
			f.drop(2)
		}
	}); allocs != 0 {
		t.Errorf("%v allocations once grown", allocs)
	}
}

package bufpool

import (
	"runtime"
	"sync"
	"testing"
)

// reset empties the pool and sets its budget for one test.
func reset(t *testing.T, bytes int64) {
	t.Helper()
	drain := func() {
		for i := range classes {
			classes[i] = classList{}
		}
		retained.Store(0)
	}
	drain()
	old := budget
	budget = bytes
	t.Cleanup(func() { drain(); budget = old })
}

// parked returns the bytes on the free list of the class holding n-byte
// requests.
func parked(n int) int64 {
	for _, c := range Stats() {
		if c.ClassBytes == 1<<(classOf(n)+classMinBits) {
			return c.RetainedBytes
		}
	}
	return 0
}

func TestGetRoundsUpToItsClassAndPutParksIt(t *testing.T) {
	reset(t, Budget)
	for _, c := range []struct{ n, class int }{
		{1, 4 << 10}, {4 << 10, 4 << 10}, {4<<10 + 1, 8 << 10}, {24 << 10, 32 << 10}, {64 << 10, 64 << 10},
	} {
		b := Get(c.n)
		if len(b) != c.n || cap(b) != c.class {
			t.Fatalf("Get(%d): len %d cap %d, want cap %d", c.n, len(b), cap(b), c.class)
		}
		b[0], b[c.n-1] = 1, 2
		Put(b)
		if got := parked(c.n); got != int64(c.class) {
			t.Fatalf("after Put of a %d-byte buffer its class parks %d bytes, want %d", c.n, got, c.class)
		}
		again := Get(c.n)
		if &again[0] != &b[0] {
			t.Fatalf("Get(%d) after Put did not reuse the parked buffer", c.n)
		}
	}
	// Outside the pooled range, and buffers that are not a class's size.
	if b := Get(0); len(b) != 0 {
		t.Fatalf("Get(0) returned %d bytes", len(b))
	}
	Put(make([]byte, 5000))
	Put(nil)
	if retained.Load() != 0 {
		t.Fatalf("%d bytes parked, want none: everything drawn is still out", retained.Load())
	}
}

func TestPoisonScribblesWhatIsParked(t *testing.T) {
	reset(t, Budget)
	defer PoisonForTest()()
	b := Get(100)
	for i := range b {
		b[i] = 7
	}
	Put(b)
	for i, v := range b[:cap(b)] {
		if v != poisonByte {
			t.Fatalf("byte %d of a parked buffer is %#x, want the poison", i, v)
		}
	}
}

// TestFullPoolEvictsIdleBuffers: a pool filled by one class makes room for
// others out of the buffers that class no longer draws, keeps what is in
// use, and never exceeds its budget.
func TestFullPoolEvictsIdleBuffers(t *testing.T) {
	const small, mid, large = 4 << 10, 64 << 10, 256 << 10
	reset(t, 1<<20)
	cycle := func(size, n int) { // one query's worth: draw n buffers, return them
		var out [][]byte
		for i := 0; i < n; i++ {
			out = append(out, Get(size))
		}
		for _, b := range out {
			Put(b)
		}
	}
	cycle(mid, 16)
	if got := parked(mid); got != 1<<20 {
		t.Fatalf("%d bytes of the middle class parked, want the whole 1 MiB budget", got)
	}
	// A new workload draws only four of those, and two other classes. The
	// first buffer that does not fit is dropped, and starts the watch for
	// what sits idle...
	cycle(mid, 4)
	cycle(small, 1)
	if s, m := parked(small), parked(mid); s != 0 || m != 16*mid {
		t.Fatalf("parked %d / %d, want 0 / %d: nothing is known to be idle yet", s, m, 16*mid)
	}
	// ...so from the next round on the twelve idle buffers give way.
	cycle(mid, 4)
	cycle(small, 1)
	cycle(large, 1)
	if s, m, l := parked(small), parked(mid), parked(large); s != small || m != 11*mid || l != large {
		t.Fatalf("parked %d / %d / %d, want %d / %d / %d", s, m, l, small, 11*mid, large)
	}
	// An over-provisioned class that overflows does not push out the
	// classes in use beside it: its own surplus is the largest, so the
	// incoming buffer goes.
	for i := 0; i < 8; i++ {
		Put(make([]byte, mid))
	}
	if s, m, l := parked(small), parked(mid), parked(large); s != small || l != large || m < 11*mid {
		t.Fatalf("parked %d / %d / %d after the middle class overflowed, want the other two kept", s, m, l)
	}
	var sum int64
	for _, c := range Stats() {
		sum += c.RetainedBytes
	}
	if r := retained.Load(); r != sum || r > budget {
		t.Fatalf("counter says %d bytes parked, the lists hold %d, the budget is %d", r, sum, budget)
	}
}

// TestConcurrentTenants runs under -race -cpu 1,4 (make race): goroutines
// draw, mark, yield, check and return buffers of mixed classes against a
// budget small enough that evictions and drops happen all the time. A
// buffer handed to two owners at once shows as a foreign mark, and the pool
// must end within budget with its counter equal to what its lists hold.
func TestConcurrentTenants(t *testing.T) {
	reset(t, 2<<20)
	sizes := []int{100, 4 << 10, 5000, 16 << 10, 64 << 10, 100_000, 512 << 10}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			held := make([][]byte, 0, 4)
			for i := 0; i < 2000; i++ {
				b := Get(sizes[(i+int(id))%len(sizes)])
				b[0], b[len(b)-1] = id, id
				held = append(held, b)
				runtime.Gosched()
				if len(held) == cap(held) {
					for _, h := range held {
						if h[0] != id || h[len(h)-1] != id {
							t.Errorf("goroutine %d found another's mark in a buffer it holds", id)
						}
						Put(h)
					}
					held = held[:0]
				}
			}
		}(byte(g + 1))
	}
	wg.Wait()
	var sum int64
	for _, c := range Stats() {
		sum += c.RetainedBytes
	}
	if r := retained.Load(); r != sum || r > budget {
		t.Errorf("counter says %d bytes parked, the lists hold %d, the budget is %d", r, sum, budget)
	}
}

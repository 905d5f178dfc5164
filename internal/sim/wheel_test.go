package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestWheelOrderAgainstReference drives the wheel with an adversarial mix of
// delays — same-instant, sub-stride, cascade-crossing, and far-future — and
// checks the firing order against the kernel contract: strict (time, seq)
// order. The reference is a simple sort of the schedule log.
func TestWheelOrderAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(1)
	type ref struct {
		at  Time
		seq int
	}
	var want []ref
	var got []ref
	seq := 0
	schedule := func(at Time) {
		r := ref{at: at, seq: seq}
		seq++
		want = append(want, r)
		s.At(at, func() {
			if s.Now() != r.at {
				t.Fatalf("event %d fired at %v, scheduled for %v", r.seq, s.Now(), r.at)
			}
			got = append(got, r)
		})
	}
	// Delays spanning every level: same-bucket (<256 ns), one cascade
	// (<64 Ki-ns), multi-level, and beyond the 2^40 ns wheel span into the
	// overflow list. Duplicates are frequent on the small strides, which is
	// what exercises the FIFO-per-bucket order.
	spans := []int64{1 << 7, 1 << 10, 1 << 19, 1 << 28, 1 << 37, 1 << 44}
	for i := 0; i < 4000; i++ {
		d := rng.Int63n(spans[rng.Intn(len(spans))]) + 1
		schedule(s.Now() + Time(d))
	}
	// Rescheduling mid-run from random instants stresses cascades landing at
	// the current clock.
	s.After(5, func() {
		for i := 0; i < 2000; i++ {
			d := rng.Int63n(spans[rng.Intn(len(spans))])
			schedule(s.Now() + Time(d)) // d may be 0: same-instant ring
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d of %d events", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
			t.Fatalf("order violation at %d: (%v, #%d) fired before (%v, #%d)",
				i, a.at, a.seq, b.at, b.seq)
		}
	}
}

// TestWheelFarFutureOverflow pins the overflow path: timers beyond the
// wheel's 2^40 ns span park on the overflow list, reindex into the wheel
// when the clock's block catches up, and still fire in exact order.
func TestWheelFarFutureOverflow(t *testing.T) {
	s := New(1)
	var order []int
	mark := func(i int) func() { return func() { order = append(order, i) } }
	far := Time(3) << (wheelBits * wheelLevels) // three blocks out
	s.At(far+5, mark(0))
	s.At(far+5, mark(1)) // same far instant: FIFO by schedule order
	s.At(far, mark(2))
	s.At(7, mark(3)) // near event fires first
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	wantOrder := []int{3, 2, 0, 1}
	for i, w := range wantOrder {
		if order[i] != w {
			t.Fatalf("firing order %v, want %v", order, wantOrder)
		}
	}
	if s.Now() != far+5 {
		t.Fatalf("clock stopped at %v, want %v", s.Now(), far+5)
	}
}

// TestTimerStopAcrossCascade arms a timer far enough out that the wheel must
// cascade it down through multiple levels, stops it mid-flight, and checks
// the cancelled record pops as a no-op: the callback never runs, while the
// clock and the fired count behave exactly as if it had fired empty.
func TestTimerStopAcrossCascade(t *testing.T) {
	s := New(1)
	fired := false
	var tm Timer
	s.Spawn("driver", func(p *Proc) {
		tm = s.AfterTimer(1<<20, func() { fired = true }) // level-2 resident
		p.Sleep(1 << 10)                                  // force a cascade below the timer first
		if !tm.Stop() {
			t.Error("Stop returned false for a pending timer")
		}
		if tm.Stop() {
			t.Error("second Stop returned true")
		}
		p.Sleep(1 << 21) // sleep past the cancelled deadline
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
	// Cancelled timer still popped: driver-spawn ready + two sleeps + the
	// no-op pop = 4 events.
	if got := s.Events(); got != 4 {
		t.Fatalf("fired %d events, want 4 (cancelled timer must pop as a no-op)", got)
	}
}

// TestTimerStopAfterFire checks a handle goes inert once its callback ran,
// even if the event record has been recycled for a new schedule.
func TestTimerStopAfterFire(t *testing.T) {
	s := New(1)
	var tm Timer
	count := 0
	tm = s.AfterTimer(5, func() { count++ })
	s.After(10, func() {
		if tm.Stop() {
			t.Error("Stop returned true after the timer fired")
		}
		// The record may now back a different timer; stopping the old handle
		// must not kill the new one.
		s.AfterTimer(5, func() { count++ })
		tm.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2 (stale Stop must not cancel a recycled record)", count)
	}
}

// TestTimerZeroDelayRidesRing pins that an AfterTimer(0) lands in the
// same-instant ring behind events already scheduled for this instant, like
// every other zero-delay schedule.
func TestTimerZeroDelayRidesRing(t *testing.T) {
	s := New(1)
	var order []int
	s.After(3, func() {
		s.At(s.Now(), func() { order = append(order, 0) })
		tm := s.AfterTimer(0, func() { order = append(order, 1) })
		s.At(s.Now(), func() { order = append(order, 2) })
		_ = tm
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("ring order %v, want [0 1 2]", order)
	}
}

// TestTimerStopZeroDelay cancels a ring-resident timer before the instant
// drains.
func TestTimerStopZeroDelay(t *testing.T) {
	s := New(1)
	fired := false
	s.After(3, func() {
		tm := s.AfterTimer(0, func() { fired = true })
		if !tm.Stop() {
			t.Error("Stop returned false for a pending zero-delay timer")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stopped zero-delay timer fired")
	}
}

// TestProcYieldZeroAlloc guards the direct-handoff Yield fast path: a
// self-dispatch must complete with no allocation (and no channel round
// trip, which is what the ProcYield benchmark times).
func TestProcYieldZeroAlloc(t *testing.T) {
	s := New(1)
	var allocs float64
	s.Spawn("yielder", func(p *Proc) {
		for i := 0; i < 64; i++ { // warm-up
			p.Yield()
		}
		allocs = testing.AllocsPerRun(1000, func() {
			p.Yield()
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("Yield allocates %.1f times per op, want 0", allocs)
	}
}

// TestCondSignalWakeZeroAlloc guards the by-value waiter queue: the
// Signal → dispatch → re-Wait cycle must not allocate at steady state.
func TestCondSignalWakeZeroAlloc(t *testing.T) {
	s := New(1)
	c := s.NewCond("guard")
	stop := false
	var allocs float64
	s.Spawn("waiter", func(p *Proc) {
		for {
			c.Wait(p)
			if stop {
				return
			}
		}
	})
	s.Spawn("signaller", func(p *Proc) {
		for i := 0; i < 64; i++ { // warm-up
			c.Signal()
			p.Yield()
		}
		allocs = testing.AllocsPerRun(1000, func() {
			c.Signal()
			p.Yield()
		})
		stop = true
		c.Broadcast()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("CondSignalWake allocates %.1f times per op, want 0", allocs)
	}
}

// TestWaitTimeoutZeroAlloc guards the closure-free timeout event: a
// WaitTimeout that expires must not allocate at steady state either — this
// is the CQ poll-wait shape on the whole-query hot path.
func TestWaitTimeoutZeroAlloc(t *testing.T) {
	s := New(1)
	c := s.NewCond("guard")
	var allocs float64
	s.Spawn("poller", func(p *Proc) {
		for i := 0; i < 64; i++ { // warm-up
			c.WaitTimeout(p, 10*time.Nanosecond)
		}
		allocs = testing.AllocsPerRun(1000, func() {
			if c.WaitTimeout(p, 10*time.Nanosecond) {
				t.Error("WaitTimeout returned true with no signaller")
			}
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("WaitTimeout allocates %.1f times per op, want 0", allocs)
	}
}

// TestChainCanonDeliveryOrder pins the canonical same-instant execution
// order every golden output was captured under: locally scheduled events
// fire in schedule order, and routed events — stamped with their (source,
// sequence) merge key — fire after them in key order, regardless of the
// order they were pushed into the bucket.
func TestChainCanonDeliveryOrder(t *testing.T) {
	const T = Time(100)
	// Each push records a tag; the canonical firing order must come out
	// identical for every delivery push order.
	run := func(order []int) []string {
		s := New(1)
		var fired []string
		local := func(tag string) {
			s.At(T, func() { fired = append(fired, tag) })
		}
		delivery := func(src int, seq uint64, tag string) {
			e := s.newEvent(T, Func(func() { fired = append(fired, tag) }), 0, nil)
			e.rsrc, e.rseq = src, seq
			s.wheelPush(e)
		}
		local("l0")
		// Deliveries keyed (src, seq); push order permuted per run.
		devs := []func(){
			func() { delivery(3, 1, "d:3,1") },
			func() { delivery(2, 7, "d:2,7") },
			func() { delivery(2, 4, "d:2,4") },
			func() { delivery(5, 2, "d:5,2") },
		}
		for _, i := range order {
			devs[i]()
		}
		local("l1")
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return fired
	}
	want := []string{"l0", "l1", "d:2,4", "d:2,7", "d:3,1", "d:5,2"}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}} {
		got := run(order)
		if len(got) != len(want) {
			t.Fatalf("order %v: fired %v, want %v", order, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order %v: fired %v, want %v", order, got, want)
			}
		}
	}
}

package sim

import (
	"fmt"
	"testing"
)

// TestSameInstantFloodOrdering floods single instants with every kind of
// same-instant scheduling — At callbacks, Spawn first-dispatches, ready
// wakeups (via Cond.Signal) and Yield resumptions — while heap-scheduled
// events for the same instant are still pending, and asserts the global
// firing order is exactly the scheduling order. This is the seq-order FIFO
// contract the package documentation promises, now served by two data
// structures (heap and ring) that the test forces to interleave.
func TestSameInstantFloodOrdering(t *testing.T) {
	s := New(1)
	var fired []int
	sched := 0
	// mark assigns the next schedule index; the very next statement must be
	// the scheduling call it tags, so mark order equals seq order.
	mark := func() int { k := sched; sched++; return k }

	// Phase 1: pre-schedule heap-path events for instant 100 (scheduled at
	// t=0, so they traverse the heap). Each one floods the ring when it
	// fires; every ring push has a higher seq than every still-pending heap
	// entry of the instant, so the scheduler must keep draining the heap
	// before touching the ring. 100 callbacks x 2 ring pushes also exceeds
	// the ring's initial capacity, exercising growth mid-instant.
	const T = Time(100)
	for i := 0; i < 100; i++ {
		k := mark()
		s.At(T, func() {
			fired = append(fired, k)
			k2 := mark()
			s.At(s.Now(), func() { fired = append(fired, k2) })
			k3 := mark()
			s.Spawn("sp1", func(p *Proc) { fired = append(fired, k3) })
		})
	}

	// Phase 2: a driver Proc at instant 200 interleaves all four wakeup
	// kinds from inside a running Proc.
	stop := false
	c := s.NewCond("flood")
	var tags []int
	for i := 0; i < 4; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for {
				c.Wait(p)
				if stop {
					return
				}
				fired = append(fired, tags[0])
				tags = tags[1:]
			}
		})
	}
	s.Spawn("driver", func(p *Proc) {
		p.Sleep(200)
		for i := 0; i < 400; i++ {
			switch i % 4 {
			case 0: // same-instant At -> ring callback
				k := mark()
				s.At(p.Now(), func() { fired = append(fired, k) })
			case 1: // Spawn -> ring first dispatch
				k := mark()
				s.Spawn("sp2", func(q *Proc) { fired = append(fired, k) })
			case 2: // Signal -> ready() ring wakeup; the waiter records the
				// tag assigned at signal time when its dispatch fires.
				k := mark()
				tags = append(tags, k)
				c.Signal()
			case 3: // Yield -> ring resumption of the driver itself
				k := mark()
				p.Yield()
				fired = append(fired, k)
			}
		}
		stop = true
		c.Broadcast()
	})

	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != sched {
		t.Fatalf("fired %d events, scheduled %d", len(fired), sched)
	}
	for i, k := range fired {
		if k != i {
			t.Fatalf("event scheduled %dth fired %dth (window %v)", k, i,
				fired[max(0, i-3):min(len(fired), i+3)])
		}
	}
}

// TestEventPoolReuse checks that recycled event records do not leak stale
// payloads: a long same-instant chain must fire every callback exactly once.
func TestEventPoolReuse(t *testing.T) {
	s := New(1)
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < 10_000 {
			s.At(s.Now(), chain)
		}
	}
	s.At(0, chain)
	// A sleeping Proc holds a pooled heap event across the chain.
	s.Spawn("sleeper", func(p *Proc) { p.Sleep(5) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 10_000 {
		t.Fatalf("chain fired %d times, want 10000", n)
	}
	if s.Events() != 10_000+2 { // chain + spawn dispatch + sleep wakeup
		t.Fatalf("Events() = %d, want %d", s.Events(), 10_000+2)
	}
}

// TestRunForRestoresHorizon verifies a window's bound does not outlive it:
// each window fires only what lies below its own bound, and a plain Run
// afterwards runs to completion.
func TestRunForRestoresHorizon(t *testing.T) {
	s := New(1)
	fired := 0
	s.At(50, func() { fired++ })
	s.At(150, func() { fired++ })
	s.At(900, func() { fired++ })
	// Window [0, 100): only the t=50 event fires.
	s.runWindow(100)
	if fired != 1 || s.Now() != 50 {
		t.Fatalf("after window 100: fired=%d now=%v, want 1 at 50", fired, s.Now())
	}
	s.runWindow(200)
	if fired != 2 || s.Now() != 150 {
		t.Fatalf("after window 200: fired=%d now=%v, want 2 at 150", fired, s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 3 || s.Now() != 900 {
		t.Fatalf("after Run: fired=%d now=%v, want 3 at 900", fired, s.Now())
	}
}

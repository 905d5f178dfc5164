package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %v, want 30", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	s := New(1)
	var at1, at2 Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100 * time.Nanosecond)
		at1 = p.Now()
		p.Sleep(250 * time.Nanosecond)
		at2 = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != 100 || at2 != 350 {
		t.Fatalf("sleep times = %v, %v; want 100, 350", at1, at2)
	}
}

func TestNegativeSleepIsYield(t *testing.T) {
	s := New(1)
	s.Spawn("p", func(p *Proc) {
		p.Sleep(-5)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	s := New(1)
	var trace []string
	step := func(p *Proc, d Duration) {
		p.Sleep(d)
		trace = append(trace, fmt.Sprintf("%s@%d", p.Name(), p.Now()))
	}
	s.Spawn("a", func(p *Proc) { step(p, 10); step(p, 20) }) // a@10, a@30
	s.Spawn("b", func(p *Proc) { step(p, 15); step(p, 10) }) // b@15, b@25
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@10", "b@15", "b@25", "a@30"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	s := New(1)
	c := s.NewCond("c")
	woken := 0
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	s.At(10, func() { c.Signal() })
	err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock: two waiters never woken")
	}
	if woken != 1 {
		t.Fatalf("woken = %d, want 1", woken)
	}
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %T, want *DeadlockError", err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("blocked = %v, want 2 procs", de.Blocked)
	}
}

func TestCondBroadcast(t *testing.T) {
	s := New(1)
	c := s.NewCond("c")
	woken := 0
	for i := 0; i < 5; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	s.At(10, func() { c.Broadcast() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	s := New(1)
	c := s.NewCond("c")
	var ok1, ok2 bool
	var t1, t2 Time
	s.Spawn("timesout", func(p *Proc) {
		ok1 = c.WaitTimeout(p, 100*time.Nanosecond)
		t1 = p.Now()
	})
	s.Spawn("signalled", func(p *Proc) {
		ok2 = c.WaitTimeout(p, 1000*time.Nanosecond)
		t2 = p.Now()
	})
	// Signal at t=200: the first waiter has already timed out at t=100 and
	// must not be re-woken; the second is still waiting.
	s.At(200, func() { c.Signal() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ok1 || t1 != 100 {
		t.Fatalf("first waiter: ok=%v at %v, want timeout at 100", ok1, t1)
	}
	if !ok2 || t2 != 200 {
		t.Fatalf("second waiter: ok=%v at %v, want signal at 200", ok2, t2)
	}
}

func TestCondTimeoutDoesNotFireAfterWake(t *testing.T) {
	s := New(1)
	c := s.NewCond("c")
	wakes := 0
	s.Spawn("w", func(p *Proc) {
		if !c.WaitTimeout(p, 1000*time.Nanosecond) {
			t.Error("wait timed out despite early signal")
		}
		wakes++
		p.Sleep(5000 * time.Nanosecond) // outlive the stale timer
	})
	s.At(10, func() { c.Signal() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 1 {
		t.Fatalf("wakes = %d, want 1", wakes)
	}
}

func TestMutexFIFO(t *testing.T) {
	s := New(1)
	m := s.NewMutex("m")
	var order []string
	hold := func(p *Proc) {
		m.Lock(p)
		order = append(order, p.Name())
		p.Sleep(10 * time.Nanosecond)
		m.Unlock(p)
	}
	// Spawn in name order; all contend at t=0 after the first grabs it.
	for _, n := range []string{"a", "b", "c", "d"} {
		n := n
		s.Spawn(n, func(p *Proc) { hold(p) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "d"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("lock order = %v, want FIFO %v", order, want)
		}
	}
	if s.Now() != 40 {
		t.Fatalf("serial critical sections should end at 40, got %v", s.Now())
	}
}

func TestMutexPanicsOnBadUse(t *testing.T) {
	s := New(1)
	m := s.NewMutex("m")
	recovered := false
	s.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		m.Lock(p)
		m.Lock(p) // recursive: must panic
	})
	_ = s.Run()
	if !recovered {
		t.Fatal("recursive lock did not panic")
	}
}

func TestWaitGroup(t *testing.T) {
	s := New(1)
	wg := s.NewWaitGroup("wg")
	finished := 0
	for i := 0; i < 3; i++ {
		d := Duration(i+1) * 10 * time.Nanosecond
		wg.Go(fmt.Sprintf("g%d", i), func(p *Proc) {
			p.Sleep(d)
			finished++
		})
	}
	var joinedAt Time
	s.Spawn("joiner", func(p *Proc) {
		wg.Wait(p)
		joinedAt = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != 3 || joinedAt != 30 {
		t.Fatalf("finished=%d joinedAt=%v, want 3 at 30", finished, joinedAt)
	}
}

func TestSpawnFromProc(t *testing.T) {
	s := New(1)
	var childRan bool
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(10 * time.Nanosecond)
		s.Spawn("child", func(c *Proc) {
			c.Sleep(5 * time.Nanosecond)
			childRan = true
			if c.Now() != 15 {
				t.Errorf("child time = %v, want 15", c.Now())
			}
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		s := New(42)
		var trace []string
		m := s.NewMutex("m")
		c := s.NewCond("c")
		var q []int
		for i := 0; i < 5; i++ {
			i := i
			s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(Duration(s.Rand().Intn(100)))
				m.Lock(p)
				trace = append(trace, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
				p.Sleep(Duration(s.Rand().Intn(50)))
				m.Unlock(p)
				q = append(q, i)
				c.Broadcast()
			})
		}
		s.Spawn("drain", func(p *Proc) {
			for n := 0; n < 5; {
				if len(q) > 0 {
					q = q[1:]
					n++
					continue
				}
				c.Wait(p)
			}
			trace = append(trace, fmt.Sprintf("drained@%v", p.Now()))
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic trace lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// Property: for any set of sleep durations, each Proc wakes exactly at the
// prefix sums of its own sleeps, independent of the other Procs.
func TestSleepIsolationProperty(t *testing.T) {
	f := func(a, b []uint16) bool {
		s := New(7)
		check := func(name string, ds []uint16) {
			s.Spawn(name, func(p *Proc) {
				var total Time
				for _, d := range ds {
					p.Sleep(Duration(d))
					total += Time(d)
					if p.Now() != total {
						t.Errorf("%s: woke at %v, want %v", name, p.Now(), total)
					}
				}
			})
		}
		check("a", a)
		check("b", b)
		return s.Run() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a Mutex never admits two holders: we track a critical-section
// depth that must alternate 0->1->0 strictly.
func TestMutexExclusionProperty(t *testing.T) {
	f := func(sleeps []uint8) bool {
		if len(sleeps) == 0 {
			return true
		}
		s := New(11)
		m := s.NewMutex("m")
		depth, maxDepth := 0, 0
		for i, d := range sleeps {
			d := Duration(d)
			s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				m.Lock(p)
				depth++
				if depth > maxDepth {
					maxDepth = depth
				}
				p.Sleep(d + 1)
				depth--
				m.Unlock(p)
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return maxDepth == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: events scheduled at arbitrary times fire in nondecreasing time
// order.
func TestEventMonotonicityProperty(t *testing.T) {
	f := func(times []uint32) bool {
		s := New(3)
		var fired []Time
		for _, at := range times {
			s.At(Time(at), func() { fired = append(fired, s.Now()) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	s := New(1)
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	reportSwitches(b, s, 0)
}

func BenchmarkMutexHandoff(b *testing.B) {
	s := New(1)
	m := s.NewMutex("m")
	for w := 0; w < 2; w++ {
		s.Spawn(fmt.Sprintf("w%d", w), func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				m.Lock(p)
				p.Sleep(1)
				m.Unlock(p)
			}
		})
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	reportSwitches(b, s, 0)
}

func TestBusyBlockedAccounting(t *testing.T) {
	s := New(1)
	c := s.NewCond("c")
	var worker *Proc
	worker = s.Spawn("worker", func(p *Proc) {
		p.Sleep(100) // busy
		c.Wait(p)    // blocked until t=500
		p.Sleep(50)  // busy
	})
	s.At(500, func() { c.Broadcast() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if worker.BusyTime() != 150 {
		t.Fatalf("busy = %v, want 150ns", worker.BusyTime())
	}
	if worker.BlockedTime() != 400 {
		t.Fatalf("blocked = %v, want 400ns", worker.BlockedTime())
	}
}

func TestMutexWaitCountsAsBlocked(t *testing.T) {
	s := New(1)
	m := s.NewMutex("m")
	var second *Proc
	s.Spawn("first", func(p *Proc) {
		m.Lock(p)
		p.Sleep(200)
		m.Unlock(p)
	})
	second = s.Spawn("second", func(p *Proc) {
		m.Lock(p) // blocked ~200ns behind first
		m.Unlock(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if second.BlockedTime() != 200 {
		t.Fatalf("blocked = %v, want 200ns", second.BlockedTime())
	}
}

// TestEventRecordSize holds the event record within 80 bytes: a larger one
// puts every scheduled event in the next size class, which was measured at
// 2.7 % wall time on shuffle8_rc.
func TestEventRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 80 {
		t.Fatalf("sizeof(event) = %d bytes, want <= 80", n)
	}
}

// stepper schedules itself once per step, telling the steps apart by the
// event argument.
type stepper struct {
	s     *Simulation
	steps []Time // steps[i] is when stage i+1 fired
}

func (st *stepper) Fire(arg uint64) {
	st.steps = append(st.steps, st.s.Now())
	if arg < 3 {
		st.s.Schedule(st.s.Now().Add(10), st, arg+1)
	}
}

// TestScheduleHandler runs one handler through its stages by argument,
// interleaved in schedule order with a closure at a shared instant.
func TestScheduleHandler(t *testing.T) {
	s := New(1)
	st := &stepper{s: s}
	var fnAt Time
	s.Schedule(5, st, 1)
	s.At(25, func() { fnAt = s.Now(); st.steps = append(st.steps, -1) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The closure was scheduled before stage 3 was, so it fires first.
	if got, want := fmt.Sprint(st.steps), "[5ns 15ns -1ns 25ns]"; got != want || fnAt != 25 {
		t.Fatalf("steps = %s (closure at %v), want %s", got, fnAt, want)
	}
	// A handler event allocates nothing once the free list is warm.
	if a := testing.AllocsPerRun(100, func() {
		st.steps = st.steps[:0]
		s.Schedule(s.Now().Add(5), st, 1)
		if err := s.Run(); err != nil {
			t.Error(err)
		}
	}); a != 0 {
		t.Fatalf("three handler stages allocate %.1f objects, want 0", a)
	}
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

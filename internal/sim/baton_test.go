package sim

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Tests for the baton-passing event loop: the goroutine that blocks drives
// the loop, so the baton reaches Run's caller from a Proc goroutine, and a
// finished Proc's goroutine keeps running callbacks until the baton leaves
// it. The mechanism is pinned by Switches counts, not by timing, and every
// scenario ends with Shutdown returning the process to its goroutine
// baseline.

// leakCheck records the goroutine baseline and returns the check to run
// once the test has shut its simulations down.
func leakCheck(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		if n := goroutinesSettle(base); n > base {
			t.Errorf("goroutines = %d after Shutdown, started with %d", n, base)
		}
	}
}

// runWithin fails the test instead of hanging it when a lost baton leaves
// run blocked forever.
func runWithin(t *testing.T, run func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- run() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return: the baton never came home")
		return nil
	}
}

// TestSwitchesLoneSleeper: a Proc with nobody else to wake pops its own
// wake-ups — timed, same-instant and timed-out — with no goroutine switch.
// The whole run costs one: the first dispatch from Run's goroutine.
func TestSwitchesLoneSleeper(t *testing.T) {
	defer leakCheck(t)()
	s := New(1)
	c := s.NewCond("quiet")
	callbacks := 0
	var during uint64
	s.Spawn("lone", func(p *Proc) {
		start := s.Switches()
		for i := 0; i < 1000; i++ {
			s.After(1, func() { callbacks++ }) // fires on this Proc's stack
			p.Sleep(3 * time.Nanosecond)
			p.Yield()
			if c.WaitTimeout(p, 2*time.Nanosecond) {
				t.Error("WaitTimeout signalled with no signaller")
			}
		}
		during = s.Switches() - start
	})
	if err := runWithin(t, s.Run); err != nil {
		t.Fatal(err)
	}
	if during != 0 || s.Switches() != 1 {
		t.Fatalf("switches: %d while sleeping, %d in all; want 0 and 1", during, s.Switches())
	}
	if s.Dispatches() != 3001 { // the first dispatch, then three self-wakes a round
		t.Fatalf("dispatches = %d, want 3001", s.Dispatches())
	}
	if callbacks != 1000 || s.Now() != 5000 {
		t.Fatalf("callbacks = %d, now = %v; want 1000 at 5µs", callbacks, s.Now())
	}
	s.Shutdown()
}

// TestSwitchesPingPong: two Procs waking each other cost exactly one switch
// a wake — the blocking Proc hands the baton straight to its partner.
func TestSwitchesPingPong(t *testing.T) {
	defer leakCheck(t)()
	s := New(1)
	ping, pong := s.NewCond("ping"), s.NewCond("pong")
	const rounds = 500
	wakes := 0
	var during uint64
	s.Spawn("b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			ping.Wait(p)
			wakes++
			pong.Signal()
		}
	})
	s.Spawn("a", func(p *Proc) {
		start := s.Switches()
		for i := 0; i < rounds; i++ {
			ping.Signal()
			pong.Wait(p)
			wakes++
		}
		during = s.Switches() - start
	})
	if err := runWithin(t, s.Run); err != nil {
		t.Fatal(err)
	}
	if wakes != 2*rounds || during != 2*rounds {
		t.Fatalf("%d wakes cost %d switches, want %d each", wakes, during, 2*rounds)
	}
	if s.Dispatches() != s.Switches() {
		t.Fatalf("%d dispatches, %d switches: no wake here is a self-wake", s.Dispatches(), s.Switches())
	}
	s.Shutdown()
}

// TestSwitchesCallbackWindows: a run holding only callbacks — local and
// routed — never leaves the goroutine that runs it.
func TestSwitchesCallbackWindows(t *testing.T) {
	defer leakCheck(t)()
	g := GroupOf(New(1), 4, 100)
	var fired [4]int
	for n := 0; n < 4; n++ {
		n := n
		var hop func()
		hop = func() {
			fired[n]++
			if at := g.Sim(n).Now().Add(150); at < 2000 {
				g.Route(n, n, at, hop)
			}
		}
		g.Sim(n).At(Time(10+n), hop)
	}
	if err := runWithin(t, g.Run); err != nil {
		t.Fatal(err)
	}
	if fired != [4]int{14, 14, 14, 14} || g.Switches() != 0 {
		t.Fatalf("fired %v callbacks with %d switches, want 14 a node and 0", fired, g.Switches())
	}
	g.Shutdown()
}

// TestBatonHomeOnDeadlock: the queue drains under blocked Procs while a
// Proc goroutine holds the baton. Run must still return, with the report
// the scheduler-goroutine kernel produced: each Proc under the label of the
// primitive it is parked on now, not one it passed through without parking.
func TestBatonHomeOnDeadlock(t *testing.T) {
	defer leakCheck(t)()
	s := New(1)
	never := s.NewCond("never")
	m := s.NewMutex("m")
	q := s.NewCond("queue q")
	s.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		q.Wait(p) // blocks for good, holding m
	})
	s.Spawn("locker", func(p *Proc) {
		if never.WaitTimeout(p, 40) {
			t.Error("WaitTimeout signalled with no signaller")
		}
		m.Lock(p)
	})
	s.Spawn("waiter", func(p *Proc) {
		p.Sleep(90) // the last wake-up: a self-wake, then the final park
		never.Wait(p)
	})
	err := runWithin(t, s.Run)
	const want = "sim: deadlock at t=90ns; 3 proc(s) blocked: " +
		"[holder: cond queue q locker: mutex m waiter: cond never]"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v\nwant  %s", err, want)
	}
	s.Shutdown()
}

// TestCallbackPanicOnProcGoroutine: callbacks run on Proc goroutines, under
// runBody's recover. That recover swallows only Shutdown's unwind; anything
// a callback panics with must still terminate the process, carrying the
// callback's own value.
func TestCallbackPanicOnProcGoroutine(t *testing.T) {
	if os.Getenv("SIM_BATON_PANIC_CHILD") == "1" {
		s := New(1)
		s.Spawn("sleeper", func(p *Proc) {
			s.After(5, func() { panic("callback boom") })
			p.Sleep(10) // the callback fires inside this Sleep
		})
		_ = s.Run()
		os.Exit(0) // not reached: the panic kills the process
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestCallbackPanicOnProcGoroutine$")
	cmd.Env = append(os.Environ(), "SIM_BATON_PANIC_CHILD=1")
	out, err := cmd.CombinedOutput()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("child exited with %v, want a crash; output:\n%s", err, out)
	}
	for _, frag := range []string{"panic: callback boom", "sim.(*Proc).Sleep", "sim.procLoop"} {
		if !strings.Contains(string(out), frag) {
			t.Fatalf("child output lacks %q:\n%s", frag, out)
		}
	}
}

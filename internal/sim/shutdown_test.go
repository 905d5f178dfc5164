package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// goroutinesSettle polls until the process goroutine count drops to at most
// want, giving killed proc goroutines (which have already handed control
// back when Shutdown returns, but may not have finished exiting) a moment
// to unwind. Returns the last observed count.
func goroutinesSettle(want int) int {
	var n int
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		n = runtime.NumGoroutine()
		if n <= want {
			return n
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestFinishedProcGoroutinesExit: a Proc's goroutine runs its body once and
// exits as soon as the baton has left it, so a run whose Procs all finished
// leaves none behind — before Shutdown, which has nothing left to wake.
func TestFinishedProcGoroutinesExit(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(1)
	for i := 0; i < 50; i++ {
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) { p.Sleep(Duration(1 + i%7)) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := goroutinesSettle(base); n > base {
		t.Fatalf("goroutines = %d after 50 finished procs, started with %d", n, base)
	}
	s.Shutdown()
}

// TestShutdownReleasesGoroutines pins the teardown contract: after
// Shutdown, a simulation retains no goroutines — neither finished procs
// nor procs that were still blocked when Run returned. Without it, every
// discarded Simulation would leak its proc population for the life of the
// process, and sweeps over many short-lived simulations slow down as GC
// mark work accumulates (the regression this test exists to prevent).
func TestShutdownReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		s := New(int64(i))
		c := s.NewCond("never")
		// A mix of terminal states: finished procs and procs blocked on a
		// cond that never signals.
		for j := 0; j < 4; j++ {
			s.Spawn(fmt.Sprintf("done%d", j), func(p *Proc) { p.Sleep(5) })
		}
		for j := 0; j < 3; j++ {
			s.Spawn(fmt.Sprintf("stuck%d", j), func(p *Proc) { c.Wait(p) })
		}
		if err := s.Run(); err == nil {
			t.Fatal("expected deadlock")
		}
		s.Shutdown()
		s.Shutdown() // idempotent
	}
	if n := goroutinesSettle(base); n > base {
		t.Fatalf("goroutines = %d after 20 shutdown simulations, started with %d", n, base)
	}
}

// TestShutdownRunsDeferredFunctions pins that a Proc blocked mid-body is
// unwound — not abandoned — so its deferred cleanups (unlocks, signals)
// run, exactly like a killed thread running its unwind handlers.
func TestShutdownRunsDeferredFunctions(t *testing.T) {
	s := New(1)
	c := s.NewCond("never")
	cleaned := false
	s.Spawn("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		c.Wait(p)
	})
	if err := s.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	if cleaned {
		t.Fatal("deferred cleanup ran before Shutdown")
	}
	s.Shutdown()
	if !cleaned {
		t.Fatal("deferred cleanup did not run during Shutdown")
	}
}

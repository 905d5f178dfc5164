package sim

import (
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Tests for the baton-passing event loop: the goroutine that blocks drives
// the loop, so the baton reaches Run's caller from a Proc goroutine, Procs
// of one partition continue another partition's loop in fused mode, and a
// finished Proc's goroutine keeps running callbacks — including one that
// re-spawns its own record. The mechanism is pinned by Switches counts, not
// by timing, and every scenario ends with Shutdown returning the process to
// its goroutine baseline.

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

// TestSwitchesCallbackWindows: windows holding only callbacks — local and
// routed, fused and wide — never leave the goroutine that runs them.
func TestSwitchesCallbackWindows(t *testing.T) {
	defer leakCheck(t)()
	g := NewGroup(1, 2, 4, 100)
	var fired [4]int // per node: wide windows run the partitions concurrently
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
	g.Sim(0).At(1, g.GoWide)
	if err := runWithin(t, g.Run); err != nil {
		t.Fatal(err)
	}
	if fired != [4]int{14, 14, 14, 14} || g.Switches() != 0 {
		t.Fatalf("fired %v callbacks with %d switches, want 14 a node and 0", fired, g.Switches())
	}
	g.Shutdown()
}

// TestBatonHomeAtHorizon: runWindow stops at its bound again and again with
// Procs asleep across it. Each time the last event below the bound ran on a
// Proc goroutine, which must send the baton home and park.
func TestBatonHomeAtHorizon(t *testing.T) {
	defer leakCheck(t)()
	s := New(1)
	var wakes, want []Time
	for i, d := range []Duration{70, 110, 260} {
		d := d
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k := 0; k < 6; k++ {
				p.Sleep(d)
				wakes = append(wakes, p.Now())
			}
		})
	}
	for at := Time(1); at <= 6*260; at++ { // the merged schedule, in time order
		for _, d := range []Time{70, 110, 260} {
			if at%d == 0 && at/d <= 6 {
				want = append(want, at)
			}
		}
	}
	for h := Time(100); h <= 1500; h += 100 {
		if err := runWithin(t, func() error { s.runWindow(h + 1); return nil }); err != nil {
			t.Fatal(err)
		}
		if s.Now() > h {
			t.Fatalf("window stopped at %v, past its bound %v", s.Now(), h)
		}
		due := 0
		for _, w := range want {
			if w <= h {
				due++
			}
		}
		if len(wakes) != due {
			t.Fatalf("%d wakes fired by %v, want %d", len(wakes), h, due)
		}
	}
	if err := runWithin(t, s.Run); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wakes, want) {
		t.Fatalf("wakes = %v\n want  %v", wakes, want)
	}
	s.Shutdown()
}

// groupRing runs a token ring on a Group: one worker Proc a node sleeps,
// then routes a token to its neighbour, whose delivery wakes that node's
// worker through a Cond; a control Proc spawns the workers (reaching into
// every partition, fused), goes wide, collects the routed completions and
// fuses back. Worker wake-ups straddle window bounds, so every window that
// dispatched a Proc ends with a Proc goroutine sending the baton home — on
// the coordinator's and on the pool workers' partitions alike. It returns a
// fingerprint of everything observable.
func groupRing(t *testing.T, lps int) string {
	t.Helper()
	const nodes, laps, look = 8, 5, 100
	g := NewGroup(7, lps, nodes, look)
	logs := make([][]string, nodes)
	tokens := make([]int, nodes)
	conds := make([]*Cond, nodes)
	for n := range conds {
		conds[n] = g.Sim(n).NewCond(fmt.Sprintf("token@%d", n))
	}
	ctl := g.Sim(g.Control())
	finished := 0
	allDone := ctl.NewCond("done")
	ctl.Spawn("control", func(p *Proc) {
		for n := 0; n < nodes; n++ {
			n := n
			s := g.Sim(n)
			s.Spawn(fmt.Sprintf("worker@%d", n), func(w *Proc) {
				for lap := 0; lap < laps; lap++ {
					w.Sleep(Duration(37*(n+1) + lap))
					to := (n + 1) % nodes
					g.Route(n, to, s.Now().Add(look+Duration(n)), func() {
						tokens[to]++
						conds[to].Signal()
					})
					for tokens[n] == 0 {
						conds[n].Wait(w)
					}
					tokens[n]--
					logs[n] = append(logs[n], fmt.Sprintf("lap%d@%v", lap, w.Now()))
				}
				g.Route(n, g.Control(), s.Now().Add(look), func() {
					finished++
					allDone.Signal()
				})
			})
		}
		p.Sleep(5)
		g.GoWide()
		for finished < nodes {
			allDone.Wait(p)
		}
		g.Fuse(p)
		logs[0] = append(logs[0], fmt.Sprintf("fused@%v", p.Now()))
	})
	if err := runWithin(t, g.Run); err != nil {
		t.Fatalf("lps %d: %v", lps, err)
	}
	if g.Switches() == 0 {
		t.Fatalf("lps %d: no Proc was ever dispatched", lps)
	}
	g.Shutdown()
	return fmt.Sprintf("events=%d now=%v logs=%v", g.Events(), g.Now(), logs)
}

// TestBatonHomeAtWindowBound: the ring's outputs are identical at 1, 2 and
// 8 partitions, on the serial window path (GOMAXPROCS 1) and on the worker
// pool (GOMAXPROCS 4).
func TestBatonHomeAtWindowBound(t *testing.T) {
	defer leakCheck(t)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref string
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, lps := range []int{1, 2, 8} {
			got := groupRing(t, lps)
			if ref == "" {
				ref = got
			}
			if got != ref {
				t.Fatalf("GOMAXPROCS %d, %d LPs diverges:\n got  %s\n want %s", procs, lps, got, ref)
			}
		}
	}
	if !strings.Contains(ref, "lap4@") || !strings.Contains(ref, "fused@") {
		t.Fatalf("ring did not finish: %s", ref)
	}
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
	q := NewQueue[int](s, "q")
	s.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		q.Get(p) // blocks for good, holding m
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

	// The same under a Group: the report spans partitions.
	g := NewGroup(1, 2, 2, 100)
	for n := 0; n < 2; n++ {
		n := n
		c := g.Sim(n).NewCond(fmt.Sprintf("never@%d", n))
		g.Sim(n).Spawn(fmt.Sprintf("stuck@%d", n), func(p *Proc) {
			p.Sleep(Duration(10 * (n + 1)))
			c.Wait(p)
		})
	}
	err = runWithin(t, g.Run)
	const wantG = "sim: deadlock at t=20ns; 2 proc(s) blocked: " +
		"[stuck@0: cond never@0 stuck@1: cond never@1]"
	if err == nil || err.Error() != wantG {
		t.Fatalf("group err = %v\nwant        %s", err, wantG)
	}
	g.Shutdown()
}

// TestFusedCrossPartitionWake: in fused mode a Cond homed on LP 0 wakes a
// Proc owned by LP 1, so LP 0's loop dispatches it. When that Proc blocks
// again it must carry on LP 0's loop — the events queued behind its
// dispatch still fire in this instant, in order — and its own timed
// wake-up, which sits in LP 1's queue, is dispatched from there.
func TestFusedCrossPartitionWake(t *testing.T) {
	defer leakCheck(t)()
	g := NewGroup(1, 2, 2, 100)
	s0, s1 := g.Sim(0), g.Sim(1)
	c := s0.NewCond("lp0-cond")
	var log []string
	note := func(what string, s *Simulation) { log = append(log, fmt.Sprintf("%s@%v", what, s.Now())) }
	w := s1.Spawn("lp1-waiter", func(p *Proc) {
		c.Wait(p)
		note("woken", s1)
		p.Sleep(5)
		note("slept", s1)
		c.Wait(p)
		note("woken again", s1)
	})
	s0.At(10, func() {
		c.Signal() // queues the waiter's dispatch on LP 0
		s0.At(10, func() { note("lp0 after dispatch", s0) })
		s0.At(12, func() { note("lp0 later", s0) })
		s0.At(30, func() { c.Signal() })
	})
	if err := runWithin(t, g.Run); err != nil {
		t.Fatal(err)
	}
	want := []string{"woken@10ns", "lp0 after dispatch@10ns", "lp0 later@12ns", "slept@15ns", "woken again@30ns"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %q\nwant  %q", log, want)
	}
	// LP 0's loop woke the waiter twice (the Cond), LP 1's twice (first
	// dispatch, sleep): the waiter was the only Proc, so every dispatch from
	// a window's own goroutine is a switch.
	if s0.Switches() != 2 || s1.Switches() != 2 || w.loop != s0 {
		t.Fatalf("switches: LP0 %d, LP1 %d, last loop LP0 %v; want 2, 2, true",
			s0.Switches(), s1.Switches(), w.loop == s0)
	}
	g.Shutdown()
}

// TestRetiredRecordRespawnedByOwnCallback: a finished Proc's goroutine
// keeps the baton and runs the callbacks that follow. One of them spawns a
// new Proc into the record that goroutine just retired; its first dispatch
// is then a self-wake, and the goroutine must fall through into the new
// body instead of parking on a resume nobody will send.
func TestRetiredRecordRespawnedByOwnCallback(t *testing.T) {
	defer leakCheck(t)()
	s := New(1)
	var second *Proc
	var log []string
	first := s.Spawn("first", func(p *Proc) {
		p.Sleep(4)
		s.After(6, func() {
			second = s.Spawn("second", func(q *Proc) {
				log = append(log, fmt.Sprintf("%s@%v busy=%v", q.Name(), q.Now(), q.BusyTime()))
				q.Sleep(5)
				log = append(log, fmt.Sprintf("%s@%v busy=%v", q.Name(), q.Now(), q.BusyTime()))
			})
		})
		log = append(log, fmt.Sprintf("%s@%v busy=%v", p.Name(), p.Now(), p.BusyTime()))
	})
	if err := runWithin(t, s.Run); err != nil {
		t.Fatal(err)
	}
	want := []string{"first@4ns busy=4ns", "second@10ns busy=0s", "second@15ns busy=5ns"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %q\nwant  %q", log, want)
	}
	if second != first {
		t.Fatal("the callback's Spawn did not reuse the retired record")
	}
	if s.Switches() != 1 {
		t.Fatalf("switches = %d, want 1: only the first dispatch leaves Run's goroutine", s.Switches())
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

// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel in virtual time.
//
// A Simulation owns a virtual clock and an event queue. Simulated threads of
// execution are Procs: ordinary goroutines that are scheduled cooperatively,
// exactly one at a time. A Proc runs until it blocks on a simulation
// primitive (Sleep, Cond.Wait, Mutex.Lock, ...). There is no scheduler
// goroutine: control is a baton, and whoever holds it runs the event loop.
// The Proc that blocks pops the following events itself, fires callbacks on
// its own stack, carries straight on if the next wake-up is its own, and
// otherwise hands the baton to the Proc being woken — one goroutine switch.
// The baton returns to Run's caller only when no event is left to fire.
// Each Proc is one goroutine that runs its body once: a finished Proc drives
// the loop until the baton leaves it, and its goroutine then exits.
// Because at most one goroutine holds the baton at any instant, simulation
// state needs no locking and every run is deterministic: events scheduled for
// the same virtual instant fire in the order they were scheduled.
//
// The kernel detects deadlock: if live Procs remain but no event can wake
// any of them, Run returns a DeadlockError naming each blocked Proc and the
// primitive it is blocked on.
//
// Scheduling is the simulator's hot path, so the kernel avoids per-event
// allocation: event records are recycled on a free list, an event's action
// is a Handler fired with an argument (so a model object can schedule
// itself at every step without a closure), Proc wakeups are a direct
// dispatch variant, and same-instant wakeups (ready, Yield, the
// first dispatch after Spawn) go through an O(1) FIFO ring that bypasses the
// O(log n) heap while preserving the global schedule-order semantics. See
// DESIGN.md, "Kernel performance".
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Time is an instant in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time. It aliases time.Duration so the usual
// constants (time.Microsecond, ...) can be used when building cost models.
type Duration = time.Duration

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return Duration(t).String() }

// Handler is the action of a scheduled event. Fire runs in scheduler
// context with the argument the event was scheduled with, so one handler
// can stand for several steps of a multi-event process — a fabric message
// scheduling itself at each stage of its transmission, a verbs work request
// routing its own verdict home — and scheduling one costs no closure. A
// handler must not block.
type Handler interface {
	Fire(arg uint64)
}

// Func adapts a closure to Handler; its argument is ignored. At, After and
// Route schedule closures through it.
type Func func()

// Fire calls f.
func (f Func) Fire(uint64) { f() }

// event is one scheduled occurrence. At most one of h and proc is set: h is
// the action, fired with arg; proc is the direct-dispatch variant that
// resumes a Proc; an event with neither is a cancelled timer, which still
// pops (advancing the clock and the fired counter exactly as the live timer
// would have) but does nothing. Events are recycled through
// Simulation.free, so no pointer to an event may outlive its firing — Timer
// handles guard against reuse with the seq stamp. The record is 72 bytes,
// in the 80-byte size class; a larger one costs the whole-query benchmarks
// measurable wall time (TestEventRecordSize).
type event struct {
	at   Time
	seq  uint64
	next *event // intrusive link: wheel bucket / overflow / chain membership
	h    Handler
	arg  uint64
	proc *Proc
	// rsrc/rseq carry a routed event's merge key through the wheel: source
	// actor + 1 and the source's send sequence (zero for locally scheduled
	// events). Same-instant execution order is derived from this key at
	// detach time — see chainCanon.
	rsrc int
	rseq uint64
}

// Simulation is a discrete-event simulator. The zero value is not usable;
// create one with New.
type Simulation struct {
	now Time
	seq uint64
	// wh holds future events in a hierarchical timer wheel (see wheel.go):
	// O(1) schedule and cancel, with the (at, seq) total order preserved
	// structurally. chain is the bucket currently being drained — the
	// already-detached FIFO of events at the next instant.
	wh    timerWheel
	chain *event
	// ring holds same-instant events (at == now, always ahead of every wheel
	// entry of the same instant scheduled later) in a power-of-two circular
	// buffer: rhead is the read index, rlen the occupancy. Pushing and
	// popping are O(1).
	ring  []*event
	rhead int
	rlen  int
	// free recycles fired event records; its length is bounded by the peak
	// number of simultaneously pending events.
	free  []*event
	fired uint64
	yield chan struct{} // brings the baton home to Run's caller; Shutdown acks
	// procs holds the live Procs: spawned and not yet finished.
	procs    map[*Proc]struct{}
	rng      *rand.Rand
	seed     int64
	switches uint64 // baton handoffs to another goroutine, see Switches
	// dispatches counts every Proc wake-up the loop delivered, see Dispatches.
	dispatches uint64
	// dead is set by Shutdown; a parked Proc goroutine observes it on its
	// next wake and exits instead of resuming its body.
	dead bool
}

// New returns an empty simulation whose random source is seeded with seed.
// The same seed always yields the same execution.
func New(seed int64) *Simulation {
	return &Simulation{
		yield: make(chan struct{}),
		procs: make(map[*Proc]struct{}),
		rng:   rand.New(rand.NewSource(seed)),
		seed:  seed,
	}
}

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Events returns the number of events fired so far — the denominator for
// events/sec wall-clock throughput measurements.
func (s *Simulation) Events() uint64 { return s.fired }

// Switches returns how many times the event loop handed control to another
// goroutine: one per dispatch of a Proc other than the one driving the loop.
// A Proc's own wake-up and every callback cost none. The count prices a run
// in goroutine switches; it is not a model output, so it belongs in no
// fingerprint.
func (s *Simulation) Switches() uint64 { return s.switches }

// Dispatches returns how many Proc wake-ups the event loop delivered: the
// Switches that went to another goroutine plus the self-wakes — a blocked
// Proc popping its own wake-up — that cost no switch at all. The difference
// is what a kernel with a central loop would have to pay for.
func (s *Simulation) Dispatches() uint64 { return s.dispatches }

// Rand returns the simulation's deterministic random source. It must only be
// used from Procs or event callbacks (never concurrently with Run from
// outside).
func (s *Simulation) Rand() *rand.Rand { return s.rng }

// Seed returns the seed the simulation was created with.
func (s *Simulation) Seed() int64 { return s.seed }

// newEvent takes an event record off the free list (or allocates one) and
// stamps it with the next schedule sequence number.
func (s *Simulation) newEvent(at Time, h Handler, arg uint64, p *Proc) *event {
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &event{}
	}
	s.seq++
	e.at, e.seq, e.h, e.arg, e.proc = at, s.seq, h, arg, p
	e.rsrc, e.rseq = 0, 0
	return e
}

// releaseEvent returns a fired event to the free list, dropping its payload
// references so recycled records don't retain handlers, Procs, or siblings.
func (s *Simulation) releaseEvent(e *event) {
	e.h, e.proc, e.next = nil, nil, nil
	s.free = append(s.free, e)
}

// ringPush appends e to the same-instant FIFO. e.at must equal s.now.
func (s *Simulation) ringPush(e *event) {
	if s.rlen == len(s.ring) {
		s.growRing()
	}
	s.ring[(s.rhead+s.rlen)&(len(s.ring)-1)] = e
	s.rlen++
}

func (s *Simulation) growRing() {
	n := 2 * len(s.ring)
	if n == 0 {
		n = 64
	}
	buf := make([]*event, n)
	for i := 0; i < s.rlen; i++ {
		buf[i] = s.ring[(s.rhead+i)&(len(s.ring)-1)]
	}
	s.ring, s.rhead = buf, 0
}

func (s *Simulation) ringPop() *event {
	e := s.ring[s.rhead]
	s.ring[s.rhead] = nil
	s.rhead = (s.rhead + 1) & (len(s.ring) - 1)
	s.rlen--
	return e
}

// Schedule arranges for h.Fire(arg) at instant t (not before now). The
// handler runs in scheduler context — inline in the event loop, on whichever
// goroutine holds the baton, Run's caller or a Proc that has blocked: it may
// schedule events, wake Procs, and mutate simulation state, but must not
// block.
func (s *Simulation) Schedule(t Time, h Handler, arg uint64) {
	if t <= s.now {
		s.ringPush(s.newEvent(s.now, h, arg, nil))
		return
	}
	s.wheelPush(s.newEvent(t, h, arg, nil))
}

// At schedules fn to run at instant t (not before now), like Schedule.
func (s *Simulation) At(t Time, fn func()) { s.Schedule(t, Func(fn), 0) }

// After schedules fn to run d after the current instant.
func (s *Simulation) After(d Duration, fn func()) { s.Schedule(s.now.Add(d), Func(fn), 0) }

// Timer is a cancellable handle to a callback scheduled with AfterTimer.
// The zero Timer is valid and inert.
type Timer struct {
	e   *event
	seq uint64
}

// AfterTimer schedules fn like After and returns a handle that can cancel
// it in O(1). It replaces the generation-counter idiom (keep the event,
// have the callback check a counter and return) that cancellation-heavy
// protocol timers — retransmission, DCQCN rate recovery — used against the
// heap.
func (s *Simulation) AfterTimer(d Duration, fn func()) Timer {
	t := s.now.Add(d)
	var e *event
	if t <= s.now {
		e = s.newEvent(s.now, Func(fn), 0, nil)
		s.ringPush(e)
	} else {
		e = s.newEvent(t, Func(fn), 0, nil)
		s.wheelPush(e)
	}
	return Timer{e: e, seq: e.seq}
}

// Stop cancels the timer's callback if it has not fired yet and reports
// whether it did. A stopped timer still pops as a no-op at its deadline —
// the clock, the fired count, and same-instant ordering are exactly those
// of a live timer whose callback does nothing, so cancellation never
// perturbs a same-seed trace. The seq stamp guards against the event
// record having been recycled for a later schedule.
func (t Timer) Stop() bool {
	if t.e == nil || t.e.seq != t.seq || t.e.h == nil {
		return false
	}
	t.e.h = nil
	return true
}

// Proc is a simulated thread of execution. Procs are created with Spawn and
// run as goroutines scheduled cooperatively by the Simulation. All methods
// that block (Sleep, and the Wait/Lock methods on Cond/Mutex that take the
// Proc) must be called only from within the Proc's own function.
type Proc struct {
	sim    *Simulation
	name   string
	resume chan struct{}
	// done is set when the body returns; a wake-up still pending for the
	// Proc then pops as a no-op.
	done bool
	// timedOut reports whether the last WaitTimeout expired.
	timedOut bool
	// blockedOn describes what the Proc is waiting for, for deadlock reports.
	// It is written when the Proc parks, so it is current exactly when a
	// report can read it; a wake-up that costs no switch never touches it.
	blockedOn string
	// busy accumulates virtual CPU time consumed via Sleep; blocked
	// accumulates time spent waiting on synchronization primitives. The
	// split drives utilization profiling (the paper's §5.1.3 analysis).
	busy    Duration
	blocked Duration
}

// BusyTime returns the virtual CPU time this Proc has consumed.
func (p *Proc) BusyTime() Duration { return p.busy }

// BlockedTime returns the virtual time this Proc spent blocked on
// synchronization (waiting for completions, credit, buffers, ...).
func (p *Proc) BlockedTime() Duration { return p.blocked }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Spawn creates a Proc named name that will begin executing fn at the
// current virtual instant. It may be called before Run or from inside a
// running Proc or event callback. Each Proc is a goroutine of its own that
// runs fn once; its record, stats included, stays readable on the returned
// handle after it finishes.
func (s *Simulation) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, resume: make(chan struct{})}
	go procLoop(p, fn)
	s.procs[p] = struct{}{}
	s.ready(p)
	return p
}

// procLoop is the body of every Proc goroutine: wait for the first dispatch,
// run fn, and exit. A goroutine woken or unwound by Shutdown acknowledges on
// s.yield before it exits; a finished one has already passed the baton on.
func procLoop(p *Proc, fn func(p *Proc)) {
	s := p.sim
	<-p.resume // first dispatch
	if s.dead || !p.runBody(fn) {
		s.yield <- struct{}{}
	}
}

// killProc is the panic value Shutdown uses to unwind a Proc goroutine parked
// in drive inside its body (block, Sleep, Yield), so the body's deferred
// functions run and the goroutine can exit.
type killProc struct{}

// runBody runs fn, retires the Proc, and — the finished Proc's goroutine
// still holds the baton — drives the event loop until the baton leaves it,
// handed to another Proc or sent home; drive then returns instead of
// parking. It reports false when unwound by Shutdown. Any other panic
// propagates: event callbacks run on Proc goroutines, and one that panics
// must take the process down with its own value.
func (p *Proc) runBody(fn func(p *Proc)) (completed bool) {
	defer func() {
		if completed {
			return
		}
		if r := recover(); r != nil {
			if _, ok := r.(killProc); !ok {
				panic(r)
			}
		}
	}()
	fn(p)
	p.done = true
	delete(p.sim.procs, p)
	p.sim.drive(p, "")
	return true
}

// next pops the next event of the current instant, or returns nil when the
// instant is exhausted and time has to advance: wheelAdvance then detaches
// the next instant's bucket into the chain. The chain drains before the
// ring: everything in it was scheduled before the clock reached this
// instant, so it carries smaller seqs than any ring entry (which could only
// have been pushed at this instant) — the same order the heap's (at, seq)
// merge produced. Kept apart from wheelAdvance, next fits the inliner's
// budget and costs drive no call.
func (s *Simulation) next() *event {
	e := s.chain
	if e != nil {
		s.chain = e.next
	} else if s.rlen > 0 {
		e = s.ringPop()
	} else {
		return nil
	}
	s.now = e.at
	s.fired++
	return e
}

// drive is the event loop, run by whichever goroutine holds the baton: the
// Run caller (self == nil) or a Proc that has just blocked, yielded or
// finished. Callbacks fire inline on the holder's stack. When the popped
// event is self's own wake-up, drive returns with no channel operation; when
// it wakes another Proc, the baton goes straight to it with one resume send
// and the holder parks — or, if self has finished, returns so its goroutine
// can exit. Only when no event is left does the baton go home on s.yield, so
// the caller of Run wakes exactly once. why is the blockedOn label self
// parks under, written only if it does park.
func (s *Simulation) drive(self *Proc, why string) {
	for {
		e := s.next()
		if e == nil {
			if s.wheelAdvance() {
				continue
			}
			if self == nil {
				return
			}
			self.blockedOn = why
			s.yield <- struct{}{}
			break
		}
		if p := e.proc; p != nil {
			s.releaseEvent(e)
			if p.done {
				continue // a finished Proc's stale wake-up pops as a no-op
			}
			s.dispatches++
			if p == self {
				return
			}
			s.switches++
			if self == nil {
				p.resume <- struct{}{}
				<-s.yield
				return
			}
			self.blockedOn = why
			p.resume <- struct{}{}
			break
		}
		if h := e.h; h != nil {
			arg := e.arg
			s.releaseEvent(e)
			if f, ok := h.(Func); ok {
				f() // the closure wrappers skip one indirect call
			} else {
				h.Fire(arg)
			}
		} else {
			// A cancelled timer: pops as a no-op so the clock, fired count,
			// and same-instant ordering stay exactly as if it had fired a
			// do-nothing callback (what cancellation-by-generation-counter
			// used to cost).
			s.releaseEvent(e)
		}
	}
	if self.done {
		return // nobody wakes a finished Proc: its goroutine exits
	}
	<-self.resume
	if self.sim.dead {
		panic(killProc{})
	}
}

// block suspends the calling Proc until something calls s.ready(p),
// accounting the wait as blocked time.
func (p *Proc) block(reason string) {
	t0 := p.sim.now
	p.sim.drive(p, reason)
	p.blocked += Duration(p.sim.now - t0)
}

// ready schedules p to resume at the current instant: an O(1) ring push of
// a closure-free dispatch event.
func (s *Simulation) ready(p *Proc) { s.ringPush(s.newEvent(s.now, nil, 0, p)) }

// Sleep suspends the Proc for d of virtual time. Negative and zero durations
// yield to other same-instant events and return.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		p.Yield()
		return
	}
	p.busy += d
	s := p.sim
	s.wheelPush(s.newEvent(s.now.Add(d), nil, 0, p))
	s.drive(p, "sleep")
}

// Yield lets all other events scheduled for the current instant run before
// the Proc continues. It is the hottest proc-switch path (every poll loop
// spins on it); with no other runnable work at this instant drive pops the
// wake-up queued here and returns without a channel operation.
func (p *Proc) Yield() {
	s := p.sim
	s.ringPush(s.newEvent(s.now, nil, 0, p))
	s.drive(p, "sleep")
}

// DeadlockError is returned by Run when live Procs remain but the event
// queue is empty, so no Proc can ever be woken again.
type DeadlockError struct {
	Time    Time
	Blocked []string // "name: reason" for each blocked Proc, sorted
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v; %d proc(s) blocked: %v",
		e.Time, len(e.Blocked), e.Blocked)
}

// deadlock returns the DeadlockError at t naming every live Proc of sims,
// or nil if none is left.
func deadlock(t Time, sims ...*Simulation) error {
	var blocked []string
	for _, s := range sims {
		for p := range s.procs {
			blocked = append(blocked, p.name+": "+p.blockedOn)
		}
	}
	if len(blocked) == 0 {
		return nil
	}
	sort.Strings(blocked)
	return &DeadlockError{Time: t, Blocked: blocked}
}

// Run executes events until the queue drains or all Procs have finished.
// It returns a *DeadlockError if Procs remain blocked with no pending
// events, and nil otherwise. Run must be called from the goroutine that owns
// the Simulation, and only once at a time.
func (s *Simulation) Run() error {
	s.drive(nil, "")
	return deadlock(s.now, s)
}

// Shutdown terminates the goroutines of the Procs that never finished. A
// finished Proc's goroutine has already exited, but one still blocked when
// the run stopped — deadlock, stall — stays parked, and a discarded
// Simulation would retain it and everything its stack references, wheel
// and rings included, until process exit. Shutdown wakes each such
// goroutine with the dead flag set: one never dispatched exits at once, and
// one blocked mid-body unwinds via a panic that runs the body's deferred
// functions (body defers must not block: Signal/Unlock are fine, Wait/Sleep
// are not). Call it once the simulation is finished — Cluster.Recycle does —
// after which the Simulation must not schedule or run anything further.
// Idempotent. Reading Now, Events, or Proc stats remains safe.
func (s *Simulation) Shutdown() {
	if s.dead {
		return
	}
	s.dead = true
	// Re-fetch from the map each round: a body's deferred functions may in
	// principle retire other state, and the kill path leaves its own entry
	// for us to delete.
	for len(s.procs) > 0 {
		var p *Proc
		for q := range s.procs {
			p = q
			break
		}
		delete(s.procs, p)
		p.resume <- struct{}{}
		<-s.yield
	}
}

package sim

// Conservative parallel discrete-event execution (PDES).
//
// A Group couples k Simulations — logical partitions, LPs — into one run
// with a partitioned clock. Model code is partitioned by *actor* (a fabric
// node, plus one control actor for cluster-wide coordination); every actor's
// state lives on exactly one LP and is only ever touched by that LP's
// events. Cross-actor interactions go through Route: the event is buffered
// in the sending LP's outbox and delivered at the next barrier, merged
// across all LPs in deterministic (time, source actor, per-actor sequence)
// order. Routing is structural — the same interactions are routed at every
// LP count, including one — so each actor observes an identical event
// sequence whether the run uses 1 LP or 8, and same-seed outputs are
// byte-identical across LP counts.
//
// The Group runs in one of two modes:
//
//   - Fused: a single-threaded per-instant lockstep. The coordinator
//     advances every LP's clock to the global minimum next-event time t and
//     drains each LP's events at exactly t, rescanning until quiescent.
//     Because all clocks agree at every instant, model code may touch other
//     LPs' simulation state directly (spawn Procs on them, wait on their
//     Conds) — the mode used for setup and teardown, where a control Proc
//     legitimately reaches into every node.
//
//   - Wide: the Chandy–Misra-style parallel phase. Each round the
//     coordinator computes the global minimum next-event time T and lets
//     every LP execute all its events in [T, T+lookahead) concurrently on a
//     pool of worker goroutines. The lookahead is the fabric's minimum
//     cross-node latency (Profile.RouteLatency), so no LP can receive a
//     routed event inside the window being executed: every Route arrival
//     time is checked against the window bound. During wide execution an
//     LP's events must touch only that LP's actors.
//
// A Group of one partition has no peer to stay in lockstep with and uses
// neither mode, outbox nor barrier: Route files each event straight into
// the wheel under its merge key and Run is the Simulation's own event loop.
//
// Conservative, not optimistic: the kernel's value is its determinism
// contract (same seed ⇒ byte-identical traces), which every test in the
// repository pins. Optimistic execution (Time Warp) needs rollback of
// arbitrary model state — Procs, NIC caches, tracer rings — and its
// commit order depends on execution timing, making byte-level determinism
// an uphill fight. Windowed conservative execution never executes an event
// that could be invalidated, so determinism falls out of the merge rule.
import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
)

// routed is one cross-LP event in flight: fn runs on the destination
// actor's LP at instant at. The (at, from, seq) triple is the merge key.
type routed struct {
	at   Time
	from int
	seq  uint64
	to   int
	fn   func()
}

// mergeRouted sorts a barrier's cross-LP events into the deterministic
// delivery order: by time, then source actor, then the source's send
// sequence. The order is a total order over all routed events (an actor's
// seq is strictly increasing), independent of how actors are grouped into
// LPs — the property FuzzWindowMerge pins.
func mergeRouted(evs []routed) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.seq < b.seq
	})
}

// Group is a set of coupled Simulations executing one partitioned run.
// Create one with NewGroup; it is not safe for concurrent use except where
// noted (Route and Fuse may be called from model code inside a window).
type Group struct {
	sims  []*Simulation
	lpOf  []int         // actor -> LP index
	simOf []*Simulation // actor -> owning simulation
	look  Duration
	nodes int

	seqs   []uint64   // per-actor Route sequence; written only by the owner LP
	outbox [][]routed // per-LP send buffers; written only by the owner LP
	merge  []routed   // scratch for the barrier merge

	// limit is the exclusive upper bound of the window being executed. It is
	// written by the coordinator before workers are released and is
	// read-only during the window.
	limit Time

	wide      bool
	wantWide  bool
	wantFused atomic.Bool // set by Fuse from any LP's window, taken at the barrier

	// Worker pool for wide windows: LP 0 runs on the coordinator, LPs 1..k-1
	// on persistent goroutines synchronized by a spin barrier on round.
	round   uint64
	release atomic.Uint64
	done    []atomic.Uint64
	started bool
	quit    atomic.Bool
}

// NewGroup builds a Group of lps partitions hosting nodes node actors plus
// one control actor (id == nodes) on LP 0. Nodes are assigned to LPs in
// contiguous blocks: node n lives on LP n*lps/nodes. look is the window
// lookahead — the minimum latency of any routed interaction.
func NewGroup(seed int64, lps, nodes int, look Duration) *Group {
	if lps < 1 {
		lps = 1
	}
	if lps > nodes {
		lps = nodes
	}
	sims := make([]*Simulation, lps)
	for i := range sims {
		sims[i] = New(seed + int64(i))
	}
	return newGroup(sims, nodes, look)
}

// GroupOf returns the one-partition Group over s: every actor lives on s,
// which has no windows, so its owner may go on driving s itself (s.Run).
func GroupOf(s *Simulation, nodes int, look Duration) *Group {
	return newGroup([]*Simulation{s}, nodes, look)
}

func newGroup(sims []*Simulation, nodes int, look Duration) *Group {
	if look <= 0 {
		panic("sim: a Group requires positive lookahead")
	}
	lps := len(sims)
	g := &Group{
		look:   look,
		nodes:  nodes,
		sims:   sims,
		lpOf:   make([]int, nodes+1),
		simOf:  make([]*Simulation, nodes+1),
		seqs:   make([]uint64, nodes+1),
		outbox: make([][]routed, lps),
		done:   make([]atomic.Uint64, lps),
	}
	for n := 0; n < nodes; n++ {
		g.lpOf[n] = n * lps / nodes
		g.simOf[n] = g.sims[g.lpOf[n]]
	}
	g.lpOf[nodes] = 0 // control actor
	g.simOf[nodes] = g.sims[0]
	return g
}

// LPs returns the number of logical partitions.
func (g *Group) LPs() int { return len(g.sims) }

// Control returns the control actor's id (== the node count).
func (g *Group) Control() int { return g.nodes }

// Sim returns the Simulation owning the given actor (a node id, or
// Control() for the control actor).
func (g *Group) Sim(actor int) *Simulation { return g.simOf[actor] }

// Events returns the total number of events fired across all partitions.
func (g *Group) Events() uint64 {
	var n uint64
	for _, s := range g.sims {
		n += s.fired
	}
	return n
}

// Switches returns the goroutine switches summed over all partitions (see
// Simulation.Switches).
func (g *Group) Switches() uint64 {
	var n uint64
	for _, s := range g.sims {
		n += s.switches
	}
	return n
}

// Dispatches returns the Proc wake-ups delivered, summed over all partitions
// (see Simulation.Dispatches).
func (g *Group) Dispatches() uint64 {
	var n uint64
	for _, s := range g.sims {
		n += s.dispatches
	}
	return n
}

// Now returns the maximum clock across partitions — the run's finishing
// instant once Run has returned.
func (g *Group) Now() Time {
	var t Time
	for _, s := range g.sims {
		if s.now > t {
			t = s.now
		}
	}
	return t
}

// Route schedules fn on to's partition at instant at, on behalf of actor
// from (which must be the actor whose event is executing). at must be at or
// beyond the current window bound — callers guarantee this by using a delay
// of at least the Group's lookahead. Route may be called concurrently from
// different LPs' windows; an actor's routes are FIFO per source. One
// partition has no window: its bound is the clock plus the lookahead — no
// laxer than any window bound, so what is legal there is legal at every
// count — and the event goes straight into the wheel.
func (g *Group) Route(from, to int, at Time, fn func()) {
	one, limit := len(g.sims) == 1, g.limit
	if one {
		limit = g.sims[0].now.Add(g.look)
	}
	if at < limit {
		panic(fmt.Sprintf("sim: Route at %v violates window bound %v (from %d to %d, sender clock %v)",
			at, limit, from, to, g.simOf[from].now))
	}
	g.seqs[from]++
	r := routed{at: at, from: from, seq: g.seqs[from], to: to, fn: fn}
	if one {
		g.land(&r)
		return
	}
	lp := g.lpOf[from]
	g.outbox[lp] = append(g.outbox[lp], r)
}

// land files one routed event in its destination wheel under its merge key.
// Deliveries arrive in barrier order (send order at one partition), which
// moves with the partition count, so the wheel re-sorts same-instant ties
// from the key at detach (chainCanon).
func (g *Group) land(r *routed) {
	s := g.simOf[r.to]
	e := s.newEvent(r.at, r.fn, nil)
	e.rsrc, e.rseq = r.from+1, r.seq
	s.wheelPush(e)
}

// GoWide switches the Group to wide (parallel window) execution at the next
// barrier. Call it from model code once per-actor isolation holds — after
// setup has finished reaching across partitions. One partition has no modes.
func (g *Group) GoWide() { g.wantWide = true }

// Fuse parks the calling Proc and switches the Group back to fused
// (lockstep) execution at the next barrier; p resumes a fixed offset after
// the instant it called Fuse, with every partition clock synchronized, and
// may then touch other partitions' state again. Call it from the Proc that
// ends the parallel phase (e.g. after a benchmark's sinks have all joined).
//
// p schedules the wake itself, on its own partition, so the resume instant
// is a pure function of the call instant — the caller's own causal instant,
// the same at every partition count — and state read after Fuse is too. The
// window bound could not anchor it: window starts derive from per-partition
// lower-bound peeks and move with the layout. Two lookahead intervals past
// the call is at or beyond every partition clock at any count, and the
// extra nanosecond keeps the wake off the route-latency lattice, clear of
// trailing message arrivals anchored at the same call instant.
func (g *Group) Fuse(p *Proc) {
	g.wantFused.Store(true)
	s := p.sim
	s.wheelPush(s.newEvent(s.now.Add(2*g.look+1), nil, p))
	p.block("fuse")
}

// deliver flushes every LP's outbox into the destination wheels in merged
// (time, source actor, seq) order. Runs at barriers only.
func (g *Group) deliver() {
	g.merge = g.merge[:0]
	for i, ob := range g.outbox {
		g.merge = append(g.merge, ob...)
		g.outbox[i] = ob[:0]
	}
	if len(g.merge) == 0 {
		return
	}
	mergeRouted(g.merge)
	for i := range g.merge {
		g.land(&g.merge[i])
		g.merge[i].fn = nil
	}
}

// barrier applies mode transitions requested during the previous window.
func (g *Group) barrier() {
	if g.wantWide {
		g.wide, g.wantWide = true, false
	}
	if g.wantFused.Swap(false) {
		g.wide = false
	}
}

// minNext returns the global minimum next-event time across partitions.
func (g *Group) minNext() (Time, bool) {
	var t Time
	ok := false
	for _, s := range g.sims {
		if u, has := s.nextAt(); has && (!ok || u < t) {
			t, ok = u, true
		}
	}
	return t, ok
}

// runFused executes the single instant t on every partition in LP order,
// rescanning until no partition holds further work at t — a cross-partition
// touch during the instant (a control Proc waking a node Proc) deposits
// same-instant events that a later pass picks up.
func (g *Group) runFused(t Time) {
	g.limit = t + 1
	for _, s := range g.sims {
		s.advanceTo(t)
	}
	for {
		before := g.Events()
		for _, s := range g.sims {
			s.runWindow(t + 1)
		}
		if g.Events() == before {
			return
		}
	}
}

// runWide executes one lookahead window on every partition concurrently:
// LP 0 inline on the coordinator, the rest on the worker pool. On a
// single-core host the pool cannot overlap anything, so the windows run
// serially in LP order instead — identical semantics (windows are
// independent by construction), none of the spin-barrier overhead. Tests
// force the true parallel path by raising GOMAXPROCS above 1.
func (g *Group) runWide(limit Time) {
	g.limit = limit
	if !g.started && runtime.GOMAXPROCS(0) == 1 {
		for _, s := range g.sims {
			s.runWindow(limit)
		}
		return
	}
	if !g.started {
		g.started = true
		for i := 1; i < len(g.sims); i++ {
			go g.worker(i)
		}
	}
	g.round++
	g.release.Store(g.round) // publishes limit to the workers
	g.sims[0].runWindow(limit)
	for i := 1; i < len(g.sims); i++ {
		for g.done[i].Load() != g.round {
			runtime.Gosched()
		}
	}
}

// worker is the body of one wide-window worker: spin until released, run
// the owned partition's window, publish completion.
func (g *Group) worker(i int) {
	var round uint64
	for {
		for g.release.Load() == round {
			runtime.Gosched()
		}
		round = g.release.Load()
		if g.quit.Load() {
			g.done[i].Store(round)
			return
		}
		g.sims[i].runWindow(g.limit)
		g.done[i].Store(round)
	}
}

// Run executes the partitioned simulation to completion: barriers deliver
// routed events and apply mode switches, then either one fused instant or
// one wide window runs. One partition has no peer to stay in lockstep with
// and runs its Simulation's own event loop to the end. Run returns a
// DeadlockError naming every blocked Proc across all partitions if live
// Procs remain with no pending events. It must be called from the goroutine
// that owns the Group, once.
func (g *Group) Run() error {
	if len(g.sims) == 1 {
		g.sims[0].drive(nil, "")
	}
	for len(g.sims) > 1 {
		g.deliver()
		g.barrier()
		t, ok := g.minNext()
		if !ok {
			break
		}
		if g.wide {
			g.runWide(t.Add(g.look))
		} else {
			g.runFused(t)
		}
	}
	live := 0
	var blocked []string
	for _, s := range g.sims {
		live += s.live
		for p := range s.procs {
			blocked = append(blocked, p.name+": "+p.blockedOn)
		}
	}
	if live > 0 {
		sort.Strings(blocked)
		return &DeadlockError{Time: g.Now(), Blocked: blocked}
	}
	return nil
}

// Shutdown stops the worker pool and terminates every Proc goroutine in
// every partition (see Simulation.Shutdown). Idempotent.
func (g *Group) Shutdown() {
	if g.started && !g.quit.Load() {
		g.quit.Store(true)
		g.release.Store(g.round + 1)
		for i := 1; i < len(g.sims); i++ {
			for g.done[i].Load() != g.round+1 {
				runtime.Gosched()
			}
		}
	}
	for _, s := range g.sims {
		s.Shutdown()
	}
}

// nextAt returns a lower bound on the instant of the earliest pending
// event, touching nothing: no cascade, no clock movement. This matters — a
// cross-LP delivery may land on this partition at any instant ≥ the window
// bound, so a peek that committed clock or wheel state toward a far-future
// local event would put later deliveries in the partition's past, where
// they would never fire. The bound is exact when the earliest event sits in
// the chain, the ring, or a level-0 bucket; for a higher-level bucket it is
// the bucket's stride start, which runWindow refines (its bounded cascades
// commit only up to the window horizon), so repeated rounds converge on the
// true instant without ever overshooting a bound.
func (s *Simulation) nextAt() (Time, bool) {
	if s.chain != nil {
		return s.chain.at, true
	}
	if s.rlen > 0 {
		return s.now, true
	}
	w := &s.wh
	now := uint64(s.now)
	for lvl := 0; lvl < wheelLevels; lvl++ {
		slot := w.scan(lvl, int(now>>(uint(lvl)*wheelBits))&wheelMask)
		if slot < 0 {
			continue
		}
		if lvl == 0 {
			// One timestamp per level-0 bucket: the head's instant is exact.
			return w.b[slot].head.at, true
		}
		shift := uint(lvl) * wheelBits
		stride := (now &^ ((uint64(wheelSlots) << shift) - 1)) | uint64(slot)<<shift
		if Time(stride) <= s.now {
			// The clock is already inside this stride (events pushed under an
			// older clock); all pending events are still in the future.
			return s.now + 1, true
		}
		return Time(stride), true
	}
	// Wheel empty: the earliest overflow event, if any, is exact. (Like
	// wheelAdvance, the wheel is consulted first; overflow events live at
	// least a full wheel span past their scheduling instant.)
	if w.ovHead == nil {
		return 0, false
	}
	min := w.ovHead.at
	for e := w.ovHead.next; e != nil; e = e.next {
		if e.at < min {
			min = e.at
		}
	}
	return min, true
}

// advanceTo moves an idle partition's clock forward to t. Callers guarantee
// no pending event precedes t (t is the global minimum next-event time), so
// the direct assignment is safe: the wheel's bottom-up scan starts at the
// clock's own slot at every level and never skips a future event.
func (s *Simulation) advanceTo(t Time) {
	if t > s.now {
		s.now = t
	}
}

// runWindow executes every pending event with instant < limit, in exactly
// the (time, seq) order Run would use, and stops with the clock at the last
// executed instant (never forced to the bound, so a later routed insertion
// at ≥ limit is always in this partition's future). The horizon is limit-1
// during the window, so wheelAdvance never commits clock state past the
// bound, and the caller wakes once, when the baton comes home.
func (s *Simulation) runWindow(limit Time) {
	save := s.maxT
	s.maxT = limit - 1
	s.drive(nil, "")
	s.maxT = save
}

package sim

// A Group is a Simulation seen as a cluster: it hosts nodes node actors plus
// one control actor (id == nodes) for cluster-wide coordination, and carries
// every cross-actor interaction through Route. All actors share the one
// Simulation and its clock; Run is that Simulation's own event loop.
//
// Routing is more than a schedule call, and what it adds fixes the output
// bytes of every run:
//
//   - Route panics below the lookahead, the fabric's minimum cross-node
//     latency (Profile.RouteLatency). That is the model's causality bound:
//     nothing crosses nodes faster than a switch traversal.
//   - A routed event carries a merge key, its source actor and that
//     actor's send sequence, and events that tie at one instant fire
//     locally scheduled ones first, then routed ones in key order
//     (chainCanon), not in the order they were scheduled.
//
// The layer above keeps per-node state per actor for the same reason: the
// fabric draws from per-node RNG streams and traces into per-node shards
// merged after the run (telemetry.MergeShards), so a node's draws and
// trace depend on its own causal order alone.
import "fmt"

// Group routes cross-actor events on one Simulation. Create one with
// GroupOf; it is not safe for concurrent use.
type Group struct {
	s     *Simulation
	look  Duration
	nodes int
	seqs  []uint64 // per-actor Route sequence, the second half of the merge key
}

// NewGroup builds a Group on a fresh Simulation seeded with seed, hosting
// nodes node actors plus the control actor. lps is a partition count, and
// only 0 and 1 are accepted: both mean the one Simulation.
//
// Deprecated: use GroupOf. The frozen benchmark harness (bench/) still
// calls NewGroup; it goes with ROADMAP item 8.
func NewGroup(seed int64, lps, nodes int, look Duration) *Group {
	if lps > 1 {
		panic(fmt.Sprintf("sim: a Group runs on one partition, not %d", lps))
	}
	return GroupOf(New(seed), nodes, look)
}

// GroupOf returns the Group over s hosting nodes node actors plus the
// control actor; look is the lookahead, the minimum latency of any routed
// interaction. Its owner may go on driving s itself (s.Run).
func GroupOf(s *Simulation, nodes int, look Duration) *Group {
	if look <= 0 {
		panic("sim: a Group requires positive lookahead")
	}
	return &Group{s: s, look: look, nodes: nodes, seqs: make([]uint64, nodes+1)}
}

// Control returns the control actor's id (== the node count).
func (g *Group) Control() int { return g.nodes }

// Sim returns the Simulation the given actor (a node id, or Control() for
// the control actor) runs on: the Group's one Simulation.
func (g *Group) Sim(actor int) *Simulation { return g.s }

// Events returns the number of events fired (see Simulation.Events).
func (g *Group) Events() uint64 { return g.s.fired }

// Switches returns the goroutine switches of the run (see
// Simulation.Switches).
func (g *Group) Switches() uint64 { return g.s.switches }

// Dispatches returns the Proc wake-ups delivered (see
// Simulation.Dispatches).
func (g *Group) Dispatches() uint64 { return g.s.dispatches }

// Route schedules fn at instant at on behalf of actor from, like
// RouteHandler.
func (g *Group) Route(from, to int, at Time, fn func()) {
	g.RouteHandler(from, to, at, Func(fn), 0)
}

// RouteHandler schedules h.Fire(arg) for actor to at instant at, on behalf
// of actor from (the actor whose event is executing). at must be at least
// the lookahead past the clock; a nearer instant is a model bug and panics.
// The event is filed under its merge key, so same-instant routed events
// fire in (source actor, send sequence) order.
func (g *Group) RouteHandler(from, to int, at Time, h Handler, arg uint64) {
	s := g.s
	if bound := s.now.Add(g.look); at < bound {
		panic(fmt.Sprintf("sim: Route at %v violates lookahead bound %v (from %d to %d, sender clock %v)",
			at, bound, from, to, s.now))
	}
	g.seqs[from]++
	e := s.newEvent(at, h, arg, nil)
	e.rsrc, e.rseq = from+1, g.seqs[from]
	s.wheelPush(e)
}

// GoWide does nothing.
//
// Deprecated: it switched a multi-partition Group to parallel windows,
// which are gone. The frozen benchmark harness (bench/) still calls it; it
// goes with ROADMAP item 8.
func (g *Group) GoWide() {}

// Run executes the simulation to completion. It returns a DeadlockError
// naming every blocked Proc if live Procs remain with no pending events. It
// must be called from the goroutine that owns the Group, once.
func (g *Group) Run() error { return g.s.Run() }

// Shutdown terminates every Proc goroutine still parked (see
// Simulation.Shutdown). Idempotent.
func (g *Group) Shutdown() { g.s.Shutdown() }

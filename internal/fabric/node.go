package fabric

import (
	"math/rand"

	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// Per-node state: a Network hosts its nodes as the actors of a sim.Group
// (see internal/sim/group.go). Cross-node deliveries go through
// Group.Route, which enforces the route latency as a causality bound and
// fires same-instant arrivals in a fixed (source, sequence) order. A Network
// built by New around one bare Simulation (qperf, unit tests) runs on a
// Group over it.
//
// Each node draws from its own RNG stream and traces into its own shard, so
// a node's draws and trace events follow its own causal order alone; the
// shards merge into one deterministic stream after the run
// (telemetry.MergeShards). Every golden output was captured this way.
type actors struct {
	g    *sim.Group
	seed int64
	// rngs[i] is node i's stream, created on its first draw (see rngAt).
	rngs []*rand.Rand
	// shards[i] is node i's trace shard; shards[nodes] is the control
	// actor's. nil until tracing is enabled.
	shards []*telemetry.Tracer
}

// NewOnGroup builds a network of n hosts, the node actors of g.
// Network.Sim is the Group's Simulation; Transmit schedules every arrival
// through Group.Route.
func NewOnGroup(g *sim.Group, prof Profile, n int, seed int64) *Network {
	net := &Network{Sim: g.Sim(g.Control()), Prof: prof, nics: make([]*nic, n),
		act: actors{g: g, seed: seed, rngs: make([]*rand.Rand, n)}}
	for i := range net.nics {
		net.nics[i] = &nic{id: i, cache: newQPCache(prof.QPCacheSize, func() *rand.Rand { return net.rngAt(i) }),
			txOrder: make(map[uint64]sim.Time), rxOrder: make(map[uint64]sim.Time)}
	}
	return net
}

// New builds a network of n hosts over the given profile on s, through a
// Group over it (sim.GroupOf): the caller drives s.
func New(s *sim.Simulation, prof Profile, n int) *Network {
	return NewOnGroup(sim.GroupOf(s, n, prof.RouteLatency()), prof, n, s.Seed())
}

// SimAt returns the simulation running node's events (-1: cluster-wide
// context): every node's is the Network's one Simulation.
func (n *Network) SimAt(node int) *sim.Simulation { return n.Sim }

// TracerAt returns the tracer shard for events executing on node's behalf
// (-1 for control), or nil when tracing is off. The shard is chosen by the
// *executing* node, never by the node a trace happens to be attributed to.
func (n *Network) TracerAt(node int) *telemetry.Tracer {
	if n.act.shards == nil {
		return nil
	}
	if node < 0 || node >= len(n.nics) {
		return n.act.shards[len(n.nics)]
	}
	return n.act.shards[node]
}

// rngAt returns node's deterministic random stream. A stream is created on
// its node's first draw — most nodes of a run never draw — from a
// splitmix-style spread that keeps streams decorrelated while staying a pure
// function of (seed, node).
func (n *Network) rngAt(node int) *rand.Rand {
	r := n.act.rngs[node]
	if r == nil {
		r = rand.New(rand.NewSource(n.act.seed ^ (int64(node)+1)*-0x61C8864680B583EB))
		n.act.rngs[node] = r
	}
	return r
}

// SetTracerShards installs per-node trace shards, one per node plus one for
// the control actor. Every layer above the fabric (verbs, shuffle, cluster)
// emits through TracerAt, so one installation instruments the whole stack.
// A tracer only records: a traced run schedules exactly the events an
// untraced one does.
func (n *Network) SetTracerShards(shards []*telemetry.Tracer) {
	if len(shards) != len(n.nics)+1 {
		panic("fabric: need one shard per node plus control")
	}
	n.act.shards = shards
}

// TraceShards returns the installed shards, or nil.
func (n *Network) TraceShards() []*telemetry.Tracer { return n.act.shards }

// Route schedules fn for dst at instant at, on behalf of the actor whose
// event is executing (src).
func (n *Network) Route(src, dst int, at sim.Time, fn func()) {
	n.act.g.Route(src, dst, at, fn)
}

// RouteHandler is Route for a handler fired with arg (sim.Group.RouteHandler).
func (n *Network) RouteHandler(src, dst int, at sim.Time, h sim.Handler, arg uint64) {
	n.act.g.RouteHandler(src, dst, at, h, arg)
}

// RouteLatency is the minimum latency of any routed cross-node interaction
// — switch traversal plus propagation, with no serialization component —
// and therefore the Group's lookahead. Data messages add
// WQE processing and serialization on top; control completions (ACKs, fence
// NAKs, membership verdicts) pay exactly this.
func (p *Profile) RouteLatency() sim.Duration {
	return p.SwitchDelay + p.PropagationDelay
}

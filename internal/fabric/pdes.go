package fabric

import (
	"fmt"
	"math/rand"

	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// PDES plumbing: a Network spreads its nodes across the logical partitions
// of a sim.Group (see internal/sim/pdes.go). Every per-node resource — the
// NIC, its QP cache, its RNG stream, its trace shard — is owned by the
// node's partition and only touched from that partition's events;
// cross-node deliveries go through Group.Route. A Network built by New
// around one bare Simulation (qperf, unit tests) runs on a one-partition
// Group over it.
//
// Per-node RNG streams are the key to LP-count invariance: a draw made on
// the shared simulation RNG would interleave with other nodes' draws in an
// order that depends on how LPs execute, while a per-node stream advances
// only in that node's own (deterministic) causal order. The same holds for
// trace shards: each node appends to its own ring, and the shards merge
// into one deterministic stream after the run (telemetry.MergeShards).
type partition struct {
	g    *sim.Group
	seed int64
	// rngs[i] is node i's stream, created on its first draw (see rngAt).
	rngs []*rand.Rand
	// shards[i] is node i's trace shard; shards[nodes] is the control
	// actor's. nil until tracing is enabled.
	shards []*telemetry.Tracer
}

// NewPartitioned builds a network whose n hosts are partitioned across g's
// LPs. Network.Sim is the control partition's simulation (LP 0), which keeps
// host-side helpers working; per-node scheduling must go through SimAt.
// Transmit schedules every arrival through Group.Route. The fault plan
// learns the partition count, which a counted rule's sender must respect.
// A lossy profile needs one partition: the PFC/ECN egress model writes
// sender state from receiver context, which is only safe on a single clock.
func NewPartitioned(g *sim.Group, prof Profile, n int, seed int64) *Network {
	if prof.Lossy && g.LPs() > 1 {
		panic(fmt.Sprintf("fabric: lossy profile %s needs one partition, got %d", prof.Name, g.LPs()))
	}
	net := &Network{Sim: g.Sim(g.Control()), Prof: prof, nics: make([]*nic, n),
		part: partition{g: g, seed: seed, rngs: make([]*rand.Rand, n)}}
	net.faults.lps = g.LPs()
	for i := range net.nics {
		net.nics[i] = &nic{id: i, cache: newQPCache(prof.QPCacheSize, func() *rand.Rand { return net.rngAt(i) }),
			txOrder: make(map[uint64]sim.Time), rxOrder: make(map[uint64]sim.Time)}
	}
	return net
}

// New builds a network of n hosts over the given profile on s alone, as a
// one-partition Group over it (sim.GroupOf): the caller drives s.
func New(s *sim.Simulation, prof Profile, n int) *Network {
	return NewPartitioned(sim.GroupOf(s, n, prof.RouteLatency()), prof, n, s.Seed())
}

// SimAt returns the simulation owning node's events. node == -1 (cluster-
// wide context) maps to the control partition.
func (n *Network) SimAt(node int) *sim.Simulation {
	if node < 0 {
		return n.Sim
	}
	return n.part.g.Sim(node)
}

// TracerAt returns the tracer shard for events executing on node's
// partition (-1 for control), or nil when tracing is off. The shard is
// chosen by the *executing* partition, never by the node a trace happens to
// be attributed to, so emission stays race-free.
func (n *Network) TracerAt(node int) *telemetry.Tracer {
	if n.part.shards == nil {
		return nil
	}
	if node < 0 || node >= len(n.nics) {
		return n.part.shards[len(n.nics)]
	}
	return n.part.shards[node]
}

// rngAt returns node's deterministic random stream. A stream is created on
// its node's first draw — most nodes of a run never draw — from a
// splitmix-style spread that keeps streams decorrelated while staying a pure
// function of (seed, node), identical at every LP count. Only node's own
// partition calls it, so creation is race-free.
func (n *Network) rngAt(node int) *rand.Rand {
	r := n.part.rngs[node]
	if r == nil {
		r = rand.New(rand.NewSource(n.part.seed ^ (int64(node)+1)*-0x61C8864680B583EB))
		n.part.rngs[node] = r
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
	n.part.shards = shards
}

// TraceShards returns the installed shards, or nil.
func (n *Network) TraceShards() []*telemetry.Tracer { return n.part.shards }

// Route schedules fn on dst's partition at instant at, on behalf of the
// actor whose event is executing (src).
func (n *Network) Route(src, dst int, at sim.Time, fn func()) {
	n.part.g.Route(src, dst, at, fn)
}

// RouteHandler is Route for a handler fired with arg (sim.Group.RouteHandler).
func (n *Network) RouteHandler(src, dst int, at sim.Time, h sim.Handler, arg uint64) {
	n.part.g.RouteHandler(src, dst, at, h, arg)
}

// RouteLatency is the minimum latency of any routed cross-node interaction
// — switch traversal plus propagation, with no serialization component —
// and therefore the widest safe PDES window lookahead. Data messages add
// WQE processing and serialization on top; control completions (ACKs, fence
// NAKs, membership verdicts) pay exactly this.
func (p *Profile) RouteLatency() sim.Duration {
	return p.SwitchDelay + p.PropagationDelay
}

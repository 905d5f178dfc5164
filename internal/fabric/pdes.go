package fabric

import (
	"math/rand"

	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// PDES plumbing: a partitioned Network spreads its nodes across the logical
// partitions of a sim.Group (see internal/sim/pdes.go). Every per-node
// resource — the NIC, its QP cache, its RNG stream, its trace shard — is
// owned by the node's partition and only touched from that partition's
// events; cross-node deliveries go through Group.Route. A Network built by
// New around one bare Simulation — the lossy tier, whose egress model needs
// a single clock, and stand-alone users such as qperf — is the nil-partition
// case: every accessor below degrades to the shared Sim/tracer/RNG.
//
// Per-node RNG streams are the key to LP-count invariance: a draw made on
// the shared simulation RNG would interleave with other nodes' draws in an
// order that depends on how LPs execute, while a per-node stream advances
// only in that node's own (deterministic) causal order. The same holds for
// trace shards: each node appends to its own ring, and the shards merge
// into one deterministic stream after the run (telemetry.MergeShards).
type partition struct {
	g    *sim.Group
	sims []*sim.Simulation
	rngs []*rand.Rand
	// shards[i] is node i's trace shard; shards[nodes] is the control
	// actor's. nil until tracing is enabled.
	shards []*telemetry.Tracer
}

// NewPartitioned builds a network whose n hosts are partitioned across g's
// LPs. Network.Sim is the control partition's simulation (LP 0), which keeps
// host-side helpers working; per-node scheduling must go through SimAt.
// The port model is New's, unchanged: Transmit schedules every arrival
// through Route, which is Group.Route here and Sim.At there.
// Lossy profiles are rejected: the PFC/ECN egress model writes sender state
// from receiver context, which is only safe on a single clock.
func NewPartitioned(g *sim.Group, prof Profile, n int, seed int64) *Network {
	if prof.Lossy {
		panic("fabric: partitioned execution does not support lossy profiles")
	}
	net := &Network{Sim: g.Sim(g.Control()), Prof: prof, nics: make([]*nic, n)}
	p := &partition{g: g, sims: make([]*sim.Simulation, n), rngs: make([]*rand.Rand, n)}
	for i := 0; i < n; i++ {
		p.sims[i] = g.Sim(i)
		// splitmix-style spread keeps per-node streams decorrelated while
		// staying a pure function of (seed, node) — identical at every LP
		// count.
		p.rngs[i] = rand.New(rand.NewSource(seed ^ (int64(i)+1)*-0x61C8864680B583EB))
	}
	net.part = p
	net.faults.rng = net.Sim.Rand()
	for i := range net.nics {
		net.nics[i] = &nic{id: i, cache: newQPCache(prof.QPCacheSize, p.rngs[i]),
			txOrder: make(map[uint64]sim.Time), rxOrder: make(map[uint64]sim.Time)}
	}
	return net
}

// Partitioned reports whether the network runs on a sim.Group.
func (n *Network) Partitioned() bool { return n.part != nil }

// SimAt returns the simulation owning node's events: the node's partition
// when partitioned, the shared simulation otherwise. node == -1 (cluster-
// wide context) maps to the control partition.
func (n *Network) SimAt(node int) *sim.Simulation {
	if n.part == nil || node < 0 {
		return n.Sim
	}
	return n.part.sims[node]
}

// TracerAt returns the tracer shard for events executing on node's
// partition (-1 for control), or the shared tracer on a single Simulation. The
// shard is chosen by the *executing* partition, never by the node a trace
// happens to be attributed to, so emission stays race-free.
func (n *Network) TracerAt(node int) *telemetry.Tracer {
	if n.part == nil || n.part.shards == nil {
		return n.tr
	}
	if node < 0 || node >= len(n.part.sims) {
		return n.part.shards[len(n.part.sims)]
	}
	return n.part.shards[node]
}

// rngAt returns node's deterministic random stream (the simulation's own
// RNG on a single Simulation).
func (n *Network) rngAt(node int) *rand.Rand {
	if n.part == nil {
		return n.Sim.Rand()
	}
	return n.part.rngs[node]
}

// SetTracerShards installs per-node trace shards (one per node plus one for
// the control actor). Partitioned runs use shards instead of SetTracer.
func (n *Network) SetTracerShards(shards []*telemetry.Tracer) {
	if n.part == nil {
		panic("fabric: SetTracerShards requires a partitioned network")
	}
	if len(shards) != len(n.part.sims)+1 {
		panic("fabric: need one shard per node plus control")
	}
	n.part.shards = shards
}

// TraceShards returns the installed shards, or nil.
func (n *Network) TraceShards() []*telemetry.Tracer {
	if n.part == nil {
		return nil
	}
	return n.part.shards
}

// Route schedules fn on dst's partition at instant at, on behalf of the
// actor whose event is executing (src). On a single Simulation it is a
// plain scheduler event at at.
func (n *Network) Route(src, dst int, at sim.Time, fn func()) {
	if n.part == nil {
		n.Sim.At(at, fn)
		return
	}
	n.part.g.Route(src, dst, at, fn)
}

// RouteLatency is the minimum latency of any routed cross-node interaction
// — switch traversal plus propagation, with no serialization component —
// and therefore the widest safe PDES window lookahead. Data messages add
// WQE processing and serialization on top; control completions (ACKs, fence
// NAKs, membership verdicts) pay exactly this.
func (p *Profile) RouteLatency() sim.Duration {
	return p.SwitchDelay + p.PropagationDelay
}

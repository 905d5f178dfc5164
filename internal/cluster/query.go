package cluster

import (
	"rshuffle/internal/engine"
	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// Phase ids used in EvPhase trace spans.
const (
	phaseSetup  = 0 // transport bootstrap: QP creation, wiring, registration
	phaseStream = 1 // the query proper
)

// Query is the body of one query: the steps that differ between the §5.1
// benchmark, a DAG plan and a bare transport bootstrap. Everything around
// them — the driver Proc and its phase spans, the stream instant, fragment
// completion, how the engine runs and how it is torn down — belongs to
// Cluster.Run.
type Query struct {
	// Name names the driver Proc and its WaitGroup; the join Proc is
	// Name+"-join".
	Name string
	// Setup builds the query's transports on the driver Proc. The virtual
	// time it charges is the setup phase.
	Setup func(p *sim.Proc)
	// Stream, when set, builds the query's fragments at the stream instant
	// and starts each with Go. It runs on the driver Proc and may reach any
	// node's state (a partitioned engine is still in lockstep).
	Stream func(p *sim.Proc)
	// Collect, when set, reads the fragments' results once the last of them
	// has finished. It runs on the control partition with every partition
	// clock synchronized, so worker-side state (sinks, receive counters, NIC
	// stats) is safe to read.
	Collect func()

	// Start and End bound the streaming phase: Start is the instant setup
	// finished, End the instant the last fragment's completion reached the
	// control partition — before any engine rejoin, so End-Start is the
	// query response time at every LP count. SetupNIC is the per-node NIC
	// counter snapshot taken at Start. Run fills all three.
	Start, End sim.Time
	SetupNIC   []fabric.NICStats

	c    *Cluster
	done *sim.WaitGroup
}

// Go starts one fragment of the running query: sink drains its plan with the
// cluster's worker threads on node, and the query ends when every fragment
// started this way has finished. Completion is a control message: the
// WaitGroups live on the control partition, so a fragment's finish routes
// home like any other cross-node interaction, paying one route latency, and
// the join instant is identical at every LP count. also lists further
// control-partition WaitGroups (a plan's per-stage groups) the same
// completion releases. Call it from Stream only.
func (q *Query) Go(node int, name string, sink *engine.Sink, also ...*sim.WaitGroup) {
	c := q.c
	q.done.Add(1)
	for _, w := range also {
		w.Add(1)
	}
	finished := func() {
		for _, w := range also {
			w.Done()
		}
		q.done.Done()
	}
	sink.Run(c.Ctx(node), name, func(p *sim.Proc) {
		c.Net.Route(node, c.N, p.Now().Add(c.Net.Prof.RouteLatency()), finished)
	})
}

// Run drives one query through its whole lifecycle — setup span, stream
// instant (AtBenchStart callbacks fire here), fragments, join, teardown —
// and returns the engine's error (a deadlock or a stall). It owns the
// cluster's simulation and recycles it, also on error: use a fresh cluster
// per query.
func (c *Cluster) Run(q *Query) error {
	q.c = c
	c.Sim.Spawn(q.Name, func(p *sim.Proc) {
		tr := c.Net.TracerAt(-1)
		tr.Begin(p.Now(), telemetry.EvPhase, -1, 0, phaseSetup, 0)
		q.Setup(p)
		q.SetupNIC = c.Net.SnapshotStats()
		q.Start = p.Now()
		tr.End(q.Start, telemetry.EvPhase, -1, 0, phaseSetup, 0)
		tr.Begin(q.Start, telemetry.EvPhase, -1, 0, phaseStream, 0)
		for _, f := range c.onBenchStart {
			f()
		}
		q.done = c.Sim.NewWaitGroup(q.Name)
		if q.Stream != nil {
			q.Stream(p)
		}
		// Setup reached across partitions freely (fused lockstep); from the
		// next barrier on, the streaming phase runs wide — every partition
		// executes its lookahead window in parallel.
		c.Group.GoWide()
		c.Sim.Spawn(q.Name+"-join", func(p *sim.Proc) {
			q.done.Wait(p)
			// The query ends the instant the last completion lands, before
			// any engine rejoin: Fuse parks this Proc across a barrier and
			// resumes it two lookahead intervals later, so reading the clock
			// after it would fold engine bookkeeping into the response time.
			q.End = p.Now()
			c.Group.Fuse(p)
			if c.FD != nil {
				c.FD.Stop()
			}
			tr.End(q.End, telemetry.EvPhase, -1, 0, phaseStream, 0)
			if q.Collect != nil {
				q.Collect()
			}
		})
	})
	err := c.Group.Run()
	c.Recycle()
	return err
}

// Recycle tears the cluster down after its simulation finishes: every
// pooled registered ring on the cluster's devices returns to the
// process-wide buffer pool, and the simulation's Proc goroutines are shut
// down (see sim.Shutdown — without this, each discarded cluster leaks its
// parked goroutines and everything they pin, and sweeps over many clusters
// slow down as the GC's mark work grows). The simulation must be finished
// and must not run again: a recycled ring may immediately back an endpoint
// in another cluster. Run calls it on completion; call it directly only
// after driving c.Group.Run by hand. Idempotent. Reading results, stats, and
// c.Events() remains safe.
func (c *Cluster) Recycle() {
	for _, d := range c.Devs {
		d.RecycleMRs()
	}
	c.Group.Shutdown()
}

package dag

import (
	"fmt"

	"rshuffle/internal/cluster"
	"rshuffle/internal/engine"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// EdgeStats reports one edge's observed traffic after a run.
type EdgeStats struct {
	// Edge is the metric identifier, "<from>-><to>".
	Edge string
	// Type is the edge's (possibly detected) shuffle type.
	Type EdgeType
	// Rows and Bytes count tuples and payload bytes delivered across the
	// edge, summed over all receiving tasks (Forward edges count the rows
	// flowing through the chain).
	Rows, Bytes int64
	// WRs counts the send work requests the edge cost at the operator
	// level (zero for Forward edges, which never touch the network).
	WRs int64
	// RowsPerNode is the per-receiving-node row count; wiring tests use it
	// to check that hash edges partition, broadcast edges replicate, and
	// rebalance edges spread.
	RowsPerNode []int64
}

// Result reports one execution of a Graph.
type Result struct {
	// Elapsed is the query response time, excluding transport setup;
	// SetupTime is the transport bootstrap (all edges' providers).
	Elapsed, SetupTime sim.Duration
	// Result is node 0's retained output of the terminal stage; Rows is
	// the terminal row count summed over all nodes (equal to Result.N for
	// gathering plans, whose terminal parallelism is 1).
	Result *engine.Table
	Rows   int64
	// Edges holds per-edge traffic statistics in Connect order.
	Edges []EdgeStats
	// Err is the first transport error observed on any edge; non-nil
	// means the run failed; the caller restarts the plan on a fresh cluster.
	Err error
}

// PublishMetrics writes the per-edge traffic counters into a registry as
// dag.edge_rows.<id>, dag.edge_bytes.<id>, and dag.edge_wqes.<id>.
func (r *Result) PublishMetrics(reg *telemetry.Registry) {
	for i := range r.Edges {
		e := &r.Edges[i]
		reg.Counter("dag.edge_rows." + e.Edge).Add(e.Rows)
		reg.Counter("dag.edge_bytes." + e.Edge).Add(e.Bytes)
		reg.Counter("dag.edge_wqes." + e.Edge).Add(e.WRs)
	}
}

// tap is a transparent pass-through that meters a Forward edge, so chained
// stages report rows/bytes like networked ones (at zero WQE cost).
type tap struct {
	in          engine.Operator
	rows, bytes *int64
}

func (t *tap) Schema() *engine.Schema { return t.in.Schema() }
func (t *tap) Open(ctx *engine.Ctx)   { t.in.Open(ctx) }
func (t *tap) Close(p *sim.Proc)      { t.in.Close(p) }

func (t *tap) Next(p *sim.Proc, tid int) (*engine.Batch, engine.State) {
	b, st := t.in.Next(p, tid)
	if b != nil && b.N > 0 {
		*t.rows += int64(b.N)
		*t.bytes += int64(b.N) * int64(b.Sch.Width())
	}
	return b, st
}

// edgeRun is one edge's runtime state.
type edgeRun struct {
	e     *Edge
	prov  shuffle.Provider
	sends []*shuffle.Shuffle // per sending node; nil entries for Forward
	recvs []*shuffle.Receive // per receiving node; nil entries for Forward
	rows  []int64            // per-node Forward tap row counts
	bytes []int64            // per-node Forward tap byte counts
}

// Run executes the graph on a cluster: every stage expands into one task
// per node, every non-Forward edge gets its own communication provider
// (the default factory, unless the edge carries a SetConfig override), and
// all fragments stream concurrently — stages are pipelined, not phased.
// Run is a body of cluster.Run, which owns the cluster's simulation and
// recycles it: use a fresh cluster per run.
//
// Structural problems (no terminal stage, schema divergence across nodes)
// panic; runtime transport failures surface in Result.Err.
func (g *Graph) Run(c *cluster.Cluster, factory cluster.ProviderFactory) *Result {
	g.terminal() // validate: exactly one sink stage
	order := g.topo()
	res := &Result{}
	runs := make(map[*Edge]*edgeRun, len(g.edges))
	termSinks := make([]*engine.Sink, c.N)
	q := &cluster.Query{Name: "dag"}

	// One provider per network edge, built in Connect order so the trace
	// and the QP numbering are reproducible. A per-edge config override
	// builds its own RDMA transport; everything else shares the run's
	// default factory implementation (but still gets its own provider
	// instance — endpoints are per operator pair).
	q.Setup = func(p *sim.Proc) {
		t0 := p.Now()
		for _, e := range g.edges {
			er := &edgeRun{e: e}
			runs[e] = er
			if e.Type == Forward {
				er.rows = make([]int64, c.N)
				er.bytes = make([]int64, c.N)
				continue
			}
			if e.cfg != nil {
				er.prov = shuffle.Build(p, c.Devs, *e.cfg, c.Threads)
			} else {
				er.prov = factory(p, c)
			}
			er.sends = make([]*shuffle.Shuffle, c.N)
			er.recvs = make([]*shuffle.Receive, c.N)
		}
		res.SetupTime = p.Now().Sub(t0)
	}

	// Build every stage's fragment on every node, inputs before consumers.
	// Fragments launch as they are built; the pull-based receives idle
	// until their upstream shuffles produce data, so launch order does not
	// affect the dataflow.
	q.Stream = func(p *sim.Proc) {
		tr := c.Net.TracerAt(-1)
		roots := make([][]engine.Operator, len(g.stages)) // [stage][node]
		for _, s := range order {
			s := s
			roots[s.id] = make([]engine.Operator, c.N)
			for node := 0; node < c.N; node++ {
				in := make([]engine.Operator, len(s.in))
				for i, e := range s.in {
					if e.Type == Forward {
						er := runs[e]
						in[i] = &tap{
							in:   roots[e.From.id][node],
							rows: &er.rows[node], bytes: &er.bytes[node],
						}
					} else {
						in[i] = &shuffle.Receive{
							Comm: runs[e].prov, Node: node,
							Sch: roots[e.From.id][node].Schema(),
						}
						runs[e].recvs[node] = in[i].(*shuffle.Receive)
					}
				}
				root := s.Build(node, in)
				if root == nil {
					panic(fmt.Sprintf("dag: stage %q built a nil fragment on node %d", s.Name, node))
				}
				if node > 0 && !root.Schema().Equal(roots[s.id][0].Schema()) {
					panic(fmt.Sprintf("dag: stage %q builds different schemas on nodes 0 and %d", s.Name, node))
				}
				roots[s.id][node] = root
			}

			// Forward-source stages have no sinks: the downstream fragment
			// drains them through the chain.
			if s.out != nil && s.out.Type == Forward {
				continue
			}
			stageWG := c.Sim.NewWaitGroup("dag-stage " + s.Name)
			tr.Begin(p.Now(), telemetry.EvStage, -1, 0, int64(s.id), 0)
			for node := 0; node < c.N; node++ {
				var top engine.Operator = roots[s.id][node]
				var sink *engine.Sink
				if s.out != nil {
					e := s.out
					sh := &shuffle.Shuffle{
						In: top, Comm: runs[e].prov, Node: node,
						G: e.groups(c.N), Key: e.keyFunc(),
					}
					runs[e].sends[node] = sh
					sink = &engine.Sink{In: sh}
				} else {
					sink = &engine.Sink{In: top, Keep: node == 0}
					termSinks[node] = sink
				}
				q.Go(node, fmt.Sprintf("dag %s@%d", s.Name, node), sink, stageWG)
			}
			c.Sim.Spawn("dag-stage-end "+s.Name, func(p *sim.Proc) {
				stageWG.Wait(p)
				tr.End(p.Now(), telemetry.EvStage, -1, 0, int64(s.id), 0)
			})
		}
	}

	q.Collect = func() {
		res.Elapsed = q.End.Sub(q.Start)
		res.Result = termSinks[0].Result
		for node := 0; node < c.N; node++ {
			res.Rows += termSinks[node].Rows
		}
		res.Edges = make([]EdgeStats, len(g.edges))
		for i, e := range g.edges {
			er := runs[e]
			st := &res.Edges[i]
			st.Edge, st.Type = e.ID(), e.Type
			st.RowsPerNode = make([]int64, c.N)
			if e.Type == Forward {
				for node := 0; node < c.N; node++ {
					st.RowsPerNode[node] = er.rows[node]
					st.Rows += er.rows[node]
					st.Bytes += er.bytes[node]
				}
				continue
			}
			for node := 0; node < c.N; node++ {
				st.RowsPerNode[node] = er.recvs[node].Rows
				st.Rows += er.recvs[node].Rows
				st.Bytes += er.recvs[node].Bytes
				st.WRs += er.sends[node].SendWRs
			}
			if err := shuffle.CheckErr(er.sends, er.recvs); err != nil && res.Err == nil {
				res.Err = fmt.Errorf("dag edge %s: %w", e.ID(), err)
			}
		}
	}
	if err := c.Run(q); err != nil && res.Err == nil {
		res.Err = err
	}
	return res
}

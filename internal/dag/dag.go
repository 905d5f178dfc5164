// Package dag provides a shuffle-aware DAG execution graph on top of the
// engine operators and the shuffle transport: operators as stages, typed
// shuffle edges (forward / hash / broadcast / rebalance) with
// automatic edge-type detection from stage parallelism and key
// requirements, N×M task wiring that instantiates one communication
// provider per edge (so every edge can run a different Table 1 design,
// mixing RC and UD transports within one query), and a pipelined stage
// scheduler over a simulated cluster.
//
// A Graph is a set of stages connected by edges. Each stage expands into
// one task per cluster node; its Build callback constructs the node's
// fragment root from the inbound edges' operators. Forward edges chain the
// upstream fragment directly into the downstream one (no network); every
// other edge type becomes a SHUFFLE/RECEIVE operator pair over its own
// endpoint provider, with transmission groups derived from the downstream
// stage's parallelism. A stage with parallelism 1 therefore gathers, one
// with full parallelism repartitions or broadcasts — the exchange patterns
// of the TPC-H plans fall out as special cases.
package dag

import (
	"fmt"

	"rshuffle/internal/engine"
	"rshuffle/internal/shuffle"
)

// EdgeType classifies how data moves between two stages.
type EdgeType int

const (
	// Forward chains two stages of equal parallelism: task i's output
	// feeds task i's downstream fragment directly, with no network hop.
	Forward EdgeType = iota
	// Hash partitions rows by a key column so equal keys meet on the same
	// downstream task.
	Hash
	// Broadcast replicates every row to all downstream tasks.
	Broadcast
	// Rebalance spreads rows round-robin across downstream tasks,
	// ignoring keys.
	Rebalance
)

func (t EdgeType) String() string {
	switch t {
	case Forward:
		return "forward"
	case Hash:
		return "hash"
	case Broadcast:
		return "broadcast"
	case Rebalance:
		return "rebalance"
	}
	return fmt.Sprintf("EdgeType(%d)", int(t))
}

// DetectEdgeType derives an edge's shuffle type from the two stages'
// parallelism and the downstream stage's data requirements, following the
// detection matrix of shuffle-aware streaming planners:
//
//	replicated (downstream needs a full copy)        → Broadcast
//	stateful downstream with a partition key          → Hash
//	equal parallelism, no redistribution requirement  → Forward (chaining)
//	otherwise (parallelism change, stateless)         → Rebalance
func DetectEdgeType(upPar, downPar int, stateful, keyed, replicated bool) EdgeType {
	switch {
	case replicated:
		return Broadcast
	case stateful && keyed:
		return Hash
	case upPar == downPar:
		return Forward
	default:
		return Rebalance
	}
}

// Stage is one logical operator of the execution graph. It expands into
// one task per cluster node at run time.
type Stage struct {
	// Name labels the stage in metrics, trace spans, and errors; it must
	// be unique within the graph.
	Name string
	// Parallelism is the number of cluster nodes that hold this stage's
	// data partitions; 0 (or anything above the cluster size) means the
	// full cluster. Inbound edges address tasks 0..Parallelism-1, so a
	// stage with Parallelism 1 gathers its input on node 0. Fragments
	// still run on every cluster node — tasks outside the parallelism
	// receive no rows but drain end-of-stream like any other receiver.
	Parallelism int
	// Stateful marks stages whose state is partitioned by key (hash join
	// builds, keyed aggregations, sorts); together with an edge key it
	// triggers Hash detection.
	Stateful bool
	// Build constructs the stage's fragment root for one cluster node.
	// in holds one operator per inbound edge, in Connect order: the
	// upstream fragment root itself for Forward edges, a RECEIVE leaf for
	// every other type. Build must return an equivalent operator shape
	// (same schema) on every node.
	Build func(node int, in []engine.Operator) engine.Operator

	id  int
	g   *Graph
	in  []*Edge
	out *Edge
}

// ID returns the stage's index within its graph (also the A argument of
// its EvStage trace span).
func (s *Stage) ID() int { return s.id }

// Edge is one typed data movement between two stages.
type Edge struct {
	From, To *Stage
	Type     EdgeType
	// Key is the partition key column in the upstream output schema
	// (WithKey; -1 otherwise).
	Key int

	// replicated marks a WithReplicated requirement (detection input).
	replicated bool
	// cfg is the per-edge transport override; nil inherits the runner's
	// default provider factory.
	cfg *shuffle.Config

	stats EdgeStats
}

// ID returns the edge's metric identifier, "<from>-><to>".
func (e *Edge) ID() string { return e.From.Name + "->" + e.To.Name }

// SetConfig pins this edge to a specific endpoint configuration (one of
// the Table 1 designs), overriding the run's default transport. Mixing
// configurations across the edges of one graph runs RC and UD transports
// side by side within a single query.
func (e *Edge) SetConfig(cfg shuffle.Config) *Edge {
	c := cfg.Defaulted()
	e.cfg = &c
	return e
}

// SetAlgorithm is SetConfig for one of the paper's named designs,
// materialized for the given worker thread count.
func (e *Edge) SetAlgorithm(a shuffle.Algorithm, threads int) *Edge {
	return e.SetConfig(a.Config(threads))
}

// EdgeOption customizes Connect.
type EdgeOption func(*Edge)

// WithKey declares the downstream stage's partition key: column col of the
// upstream output schema. Combined with a stateful downstream stage it
// makes detection choose Hash.
func WithKey(col int) EdgeOption {
	return func(e *Edge) { e.Key = col }
}

// WithReplicated declares that the downstream stage needs a full copy of
// the edge's data on every task (a replicated join build side); detection
// chooses Broadcast.
func WithReplicated() EdgeOption {
	return func(e *Edge) { e.replicated = true }
}

// Graph is a DAG of stages under construction. Build one with New,
// populate it with AddStage and Connect, and execute it with Run.
type Graph struct {
	stages []*Stage
	edges  []*Edge
	names  map[string]bool
}

// New returns an empty execution graph.
func New() *Graph {
	return &Graph{names: make(map[string]bool)}
}

// Stages returns the graph's stages in creation order.
func (g *Graph) Stages() []*Stage { return g.stages }

// Edges returns the graph's edges in Connect order (also the order their
// transport providers are built in).
func (g *Graph) Edges() []*Edge { return g.edges }

// AddStage adds a stage and returns its handle. Structural misuse — a
// duplicate or empty name, a nil builder — is a programming error and
// panics, mirroring the engine's constructor discipline.
func (g *Graph) AddStage(s Stage) *Stage {
	if s.Name == "" {
		panic("dag: stage needs a name")
	}
	if g.names[s.Name] {
		panic(fmt.Sprintf("dag: duplicate stage %q", s.Name))
	}
	if s.Build == nil {
		panic(fmt.Sprintf("dag: stage %q needs a Build function", s.Name))
	}
	st := &Stage{
		Name:        s.Name,
		Parallelism: s.Parallelism,
		Stateful:    s.Stateful,
		Build:       s.Build,
		id:          len(g.stages),
		g:           g,
	}
	g.stages = append(g.stages, st)
	g.names[s.Name] = true
	return st
}

// Connect adds an edge from one stage's output to another's input and
// returns it. The edge type is detected from the stages' parallelism and
// the options' key requirements (see DetectEdgeType). Each stage feeds at most one edge — the pull-based
// fragments are drained exactly once — so plans are in-trees: joins fan
// in, nothing fans out except through Broadcast delivery.
func (g *Graph) Connect(from, to *Stage, opts ...EdgeOption) *Edge {
	if from.g != g || to.g != g {
		panic("dag: Connect across graphs")
	}
	if from == to {
		panic(fmt.Sprintf("dag: self-edge on %q", from.Name))
	}
	if from.out != nil {
		panic(fmt.Sprintf("dag: stage %q already has an outbound edge (fragments are drained once; duplicate the stage to fan out)", from.Name))
	}
	// With out-degree <= 1, any cycle must follow the out-chain from `to`
	// back into `from`.
	for s := to; s != nil; {
		if s == from {
			panic(fmt.Sprintf("dag: edge %s->%s creates a cycle", from.Name, to.Name))
		}
		if s.out == nil {
			break
		}
		s = s.out.To
	}
	e := &Edge{From: from, To: to, Key: -1}
	for _, o := range opts {
		o(e)
	}
	e.Type = DetectEdgeType(from.Parallelism, to.Parallelism,
		to.Stateful, e.Key >= 0, e.replicated)
	from.out = e
	to.in = append(to.in, e)
	g.edges = append(g.edges, e)
	return e
}

// terminal returns the graph's single sink stage (no outbound edge).
func (g *Graph) terminal() *Stage {
	var t *Stage
	for _, s := range g.stages {
		if s.out == nil {
			if t != nil {
				panic(fmt.Sprintf("dag: two terminal stages (%q and %q); a runnable graph has exactly one sink", t.Name, s.Name))
			}
			t = s
		}
	}
	if t == nil {
		panic("dag: empty graph")
	}
	return t
}

// topo returns the stages in topological order (inputs before consumers).
// With connect-time cycle rejection the graph is always a DAG; topo only
// fixes the build order.
func (g *Graph) topo() []*Stage {
	order := make([]*Stage, 0, len(g.stages))
	done := make([]bool, len(g.stages))
	var visit func(s *Stage)
	visit = func(s *Stage) {
		if done[s.id] {
			return
		}
		done[s.id] = true
		for _, e := range s.in {
			visit(e.From)
		}
		order = append(order, s)
	}
	for _, s := range g.stages {
		visit(s)
	}
	return order
}

// par clamps a stage's parallelism to the cluster size.
func (s *Stage) par(n int) int {
	if s.Parallelism <= 0 || s.Parallelism > n {
		return n
	}
	return s.Parallelism
}

// groups returns the edge's transmission groups over a cluster of n nodes:
// one singleton group per downstream task for the partitioning types, one
// group holding every downstream task for Broadcast.
func (e *Edge) groups(n int) shuffle.Groups {
	p := e.To.par(n)
	if e.Type == Broadcast {
		return shuffle.Broadcast(p)
	}
	return shuffle.Repartition(p)
}

// keyFunc returns the partitioning function for one sending task. Hash
// uses the library's mixing hash (shuffle.KeyInt64Col), so a DAG plan
// partitions like a bare SHUFFLE operator; Rebalance round-robins with a
// per-sender cursor (deterministic under the cooperative scheduler);
// Broadcast has a single group, so the constant zero suffices.
func (e *Edge) keyFunc() func(sch *engine.Schema, row []byte) uint64 {
	switch e.Type {
	case Hash:
		return shuffle.KeyInt64Col(e.Key)
	case Rebalance:
		var cursor uint64
		return func(sch *engine.Schema, row []byte) uint64 {
			cursor++
			return cursor - 1
		}
	default: // Broadcast: one group.
		return func(sch *engine.Schema, row []byte) uint64 { return 0 }
	}
}

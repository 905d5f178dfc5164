package dag

import (
	"bytes"
	"testing"
	"time"

	"rshuffle/internal/cluster"
	"rshuffle/internal/engine"
	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/telemetry"
)

// quiet removes the UD reordering jitter so cross-algorithm comparisons
// are not perturbed by datagram arrival order.
func quiet(p fabric.Profile) fabric.Profile {
	p.UDReorderProb = 0
	return p
}

// defaultFactory is the suite's default transport: MEMQ/SR.
func defaultFactory(threads int) cluster.ProviderFactory {
	return cluster.RDMAProvider(shuffle.Config{Impl: shuffle.MQSR, Endpoints: threads})
}

// seqTables builds one table per node with sequential keys 0..rows-1 and
// the row index as value.
func seqTables(n, rows int) []*engine.Table {
	ts := make([]*engine.Table, n)
	for a := 0; a < n; a++ {
		t := engine.NewTable(engine.NewSchema(engine.TInt64, engine.TInt64))
		w := engine.NewWriter(t)
		for i := 0; i < rows; i++ {
			w.SetInt64(0, int64(i))
			w.SetInt64(1, int64(a*rows+i))
			w.Done()
		}
		ts[a] = t
	}
	return ts
}

// edgeStats returns the named edge's statistics from a run.
func edgeStats(t *testing.T, res *Result, id string) *EdgeStats {
	t.Helper()
	for i := range res.Edges {
		if res.Edges[i].Edge == id {
			return &res.Edges[i]
		}
	}
	t.Fatalf("no stats for edge %s", id)
	return nil
}

func scanStage(g *Graph, name string, tables []*engine.Table) *Stage {
	return g.AddStage(Stage{
		Name: name,
		Build: func(node int, in []engine.Operator) engine.Operator {
			return &engine.Scan{T: tables[node]}
		},
	})
}

func passStage(g *Graph, name string, par int, stateful bool) *Stage {
	return g.AddStage(Stage{
		Name: name, Parallelism: par, Stateful: stateful,
		Build: func(node int, in []engine.Operator) engine.Operator {
			return in[0]
		},
	})
}

// TestDetectEdgeTypeGolden pins the full detection matrix: parallelism ×
// statefulness × key requirement × replication, including the
// same-parallelism operator-chaining case.
func TestDetectEdgeTypeGolden(t *testing.T) {
	cases := []struct {
		upPar, downPar              int
		stateful, keyed, replicated bool
		want                        EdgeType
	}{
		// Replication dominates everything, including keys and equal
		// parallelism: a replicated join build side broadcasts.
		{4, 4, true, true, true, Broadcast},
		{4, 1, false, false, true, Broadcast},
		{2, 8, true, false, true, Broadcast},
		// Stateful + keyed repartitions by key, regardless of parallelism.
		{4, 4, true, true, false, Hash},
		{4, 1, true, true, false, Hash},
		{1, 4, true, true, false, Hash},
		// Equal parallelism with no redistribution requirement chains the
		// operators (forward), even when one side is stateful or a key is
		// present but the consumer keeps no keyed state.
		{4, 4, false, false, false, Forward},
		{4, 4, true, false, false, Forward},
		{4, 4, false, true, false, Forward},
		{1, 1, false, false, false, Forward},
		// Parallelism changes without a keyed consumer rebalance.
		{4, 2, false, false, false, Rebalance},
		{2, 4, false, false, false, Rebalance},
		{4, 1, false, true, false, Rebalance},
		{4, 2, true, false, false, Rebalance},
	}
	for _, c := range cases {
		got := DetectEdgeType(c.upPar, c.downPar, c.stateful, c.keyed, c.replicated)
		if got != c.want {
			t.Errorf("DetectEdgeType(%d, %d, stateful=%v, keyed=%v, replicated=%v) = %v, want %v",
				c.upPar, c.downPar, c.stateful, c.keyed, c.replicated, got, c.want)
		}
	}
}

// TestGraphValidation pins the construction-time panics: fan-out from one
// stage, cycles, and keyless hash edges are programming errors.
func TestGraphValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	build := func(node int, in []engine.Operator) engine.Operator { return in[0] }
	expectPanic("fan-out", func() {
		g := New()
		a := g.AddStage(Stage{Name: "a", Build: build})
		b := g.AddStage(Stage{Name: "b", Build: build})
		c := g.AddStage(Stage{Name: "c", Build: build})
		g.Connect(a, b)
		g.Connect(a, c)
	})
	expectPanic("cycle", func() {
		g := New()
		a := g.AddStage(Stage{Name: "a", Build: build})
		b := g.AddStage(Stage{Name: "b", Build: build})
		g.Connect(a, b)
		g.Connect(b, a)
	})
	expectPanic("duplicate-name", func() {
		g := New()
		g.AddStage(Stage{Name: "a", Build: build})
		g.AddStage(Stage{Name: "a", Build: build})
	})
}

// TestForwardChaining runs a two-stage plan whose stages have equal
// parallelism: the edge must be detected as Forward, chain the fragments
// with no network traffic, and still meter the rows that crossed it.
func TestForwardChaining(t *testing.T) {
	const nodes, rows = 4, 3000
	tables := seqTables(nodes, rows)
	g := New()
	src := scanStage(g, "scan", tables)
	flt := g.AddStage(Stage{
		Name: "filter",
		Build: func(node int, in []engine.Operator) engine.Operator {
			return &engine.Filter{In: in[0], Pred: func(b *engine.Batch, i int) bool {
				return b.Int64(i, 0)%2 == 0
			}}
		},
	})
	e := g.Connect(src, flt)
	if e.Type != Forward {
		t.Fatalf("edge type = %v, want Forward", e.Type)
	}

	c := cluster.New(quiet(fabric.EDR()), nodes, 2, 42)
	res := g.Run(c, defaultFactory(2))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	st := edgeStats(t, res, "scan->filter")
	if st.Rows != nodes*rows {
		t.Errorf("forward edge rows = %d, want %d", st.Rows, nodes*rows)
	}
	if st.WRs != 0 {
		t.Errorf("forward edge posted %d WRs, want 0", st.WRs)
	}
	if want := int64(nodes * rows / 2); res.Rows != want {
		t.Errorf("result rows = %d, want %d", res.Rows, want)
	}
}

// TestRebalanceSpread checks that a parallelism-reducing stateless edge
// round-robins: only the downstream tasks receive rows, and the spread
// between them is bounded by the sender count.
func TestRebalanceSpread(t *testing.T) {
	const nodes, rows = 4, 2500
	tables := seqTables(nodes, rows)
	g := New()
	src := scanStage(g, "scan", tables)
	dst := passStage(g, "collect", 2, false)
	e := g.Connect(src, dst)
	if e.Type != Rebalance {
		t.Fatalf("edge type = %v, want Rebalance", e.Type)
	}

	c := cluster.New(quiet(fabric.EDR()), nodes, 2, 42)
	res := g.Run(c, defaultFactory(2))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	st := edgeStats(t, res, "scan->collect")
	if st.Rows != nodes*rows {
		t.Fatalf("edge rows = %d, want %d", st.Rows, nodes*rows)
	}
	if st.RowsPerNode[2] != 0 || st.RowsPerNode[3] != 0 {
		t.Errorf("tasks beyond parallelism received rows: %v", st.RowsPerNode)
	}
	diff := st.RowsPerNode[0] - st.RowsPerNode[1]
	if diff < 0 {
		diff = -diff
	}
	if diff > nodes {
		t.Errorf("rebalance spread %v differs by %d, want <= %d (one per sender)",
			st.RowsPerNode[:2], diff, nodes)
	}
}

// TestBroadcastReplicates checks a replicated edge delivers the full input
// to every task.
func TestBroadcastReplicates(t *testing.T) {
	const nodes, rows = 4, 1500
	tables := seqTables(nodes, rows)
	g := New()
	src := scanStage(g, "scan", tables)
	all := passStage(g, "all", 0, true)
	e := g.Connect(src, all, WithReplicated())
	if e.Type != Broadcast {
		t.Fatalf("edge type = %v, want Broadcast", e.Type)
	}

	c := cluster.New(quiet(fabric.EDR()), nodes, 2, 42)
	res := g.Run(c, defaultFactory(2))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	st := edgeStats(t, res, "scan->all")
	for node, got := range st.RowsPerNode {
		if got != nodes*rows {
			t.Errorf("node %d received %d rows, want full copy %d", node, got, nodes*rows)
		}
	}
	if st.WRs == 0 {
		t.Error("broadcast edge reported zero WQEs")
	}
}

// demoRun executes the multi-stage demo once and returns the result.
func demoRun(t *testing.T, factory cluster.ProviderFactory, tweak func(*Graph)) *Result {
	t.Helper()
	const nodes, threads = 4, 2
	fact, dim := DemoTables(nodes, 2000, 250, 7)
	g := MultiStageDemo(fact, dim)
	if tweak != nil {
		tweak(g)
	}
	c := cluster.New(quiet(fabric.EDR()), nodes, threads, 42)
	res := g.Run(c, factory)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res
}

// TestMultiStageAllAlgorithms runs the partial-agg → hash → join →
// broadcast plan under all six Table 1 designs: every run must succeed,
// produce the identical global summary row, and move the same rows and
// bytes across every edge; the per-edge counters must land in the metrics
// registry.
func TestMultiStageAllAlgorithms(t *testing.T) {
	var refResult []byte
	var refRows [3]int64
	for i, alg := range shuffle.Algorithms {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			res := demoRun(t, cluster.RDMAProvider(alg.Config(2)), nil)
			if res.Result == nil || res.Result.N != 1 {
				t.Fatalf("terminal result = %+v, want exactly one summary row", res.Result)
			}
			if res.Rows != 4 {
				t.Errorf("terminal rows = %d, want one replica per node", res.Rows)
			}
			// The summed fact values are an end-to-end checksum: every fact
			// row's val must flow through partial agg, merge, and join
			// exactly once. Per node: sum 0..1999 = 1999000; four nodes.
			sumVal := engine.RowFloat64(res.Result.Sch, res.Result.Row(0), 1)
			if sumVal != 4*1999000 {
				t.Errorf("sum(val) = %v, want %v", sumVal, 4*1999000)
			}
			if len(res.Edges) != 3 {
				t.Fatalf("edge count = %d, want 3", len(res.Edges))
			}
			if i == 0 {
				refResult = append([]byte(nil), res.Result.Data...)
				for j := range res.Edges {
					refRows[j] = res.Edges[j].Rows
				}
			} else {
				if !bytes.Equal(res.Result.Data, refResult) {
					t.Errorf("result bytes differ from %s", shuffle.Algorithms[0].Name)
				}
				for j := range res.Edges {
					if res.Edges[j].Rows != refRows[j] {
						t.Errorf("edge %s rows = %d, want %d (as under %s)",
							res.Edges[j].Edge, res.Edges[j].Rows, refRows[j], shuffle.Algorithms[0].Name)
					}
				}
			}
			reg := telemetry.NewRegistry()
			res.PublishMetrics(reg)
			for _, e := range res.Edges {
				if got := reg.CounterValue("dag.edge_rows." + e.Edge); got != e.Rows {
					t.Errorf("registry dag.edge_rows.%s = %d, want %d", e.Edge, got, e.Rows)
				}
				if got := reg.CounterValue("dag.edge_bytes." + e.Edge); got != e.Bytes {
					t.Errorf("registry dag.edge_bytes.%s = %d, want %d", e.Edge, got, e.Bytes)
				}
			}
		})
	}
}

// TestMixedTransportsPerEdge pins per-edge algorithm selection: one query
// whose three edges run RC send/receive, UD send/receive, and one-sided RC
// read side by side must match the single-transport result.
func TestMixedTransportsPerEdge(t *testing.T) {
	base := demoRun(t, defaultFactory(2), nil)
	mixed := demoRun(t, defaultFactory(2), func(g *Graph) {
		es := g.Edges()
		es[0].SetAlgorithm(shuffle.Algorithm{Name: "MEMQ/SR", Impl: shuffle.MQSR, ME: true}, 2)
		es[1].SetAlgorithm(shuffle.Algorithm{Name: "MESQ/SR", Impl: shuffle.SQSR, ME: true}, 2)
		es[2].SetAlgorithm(shuffle.Algorithm{Name: "SEMQ/RD", Impl: shuffle.MQRD, ME: false}, 2)
	})
	if !bytes.Equal(base.Result.Data, mixed.Result.Data) {
		t.Error("mixed-transport result differs from single-transport result")
	}
	for i := range base.Edges {
		if base.Edges[i].Rows != mixed.Edges[i].Rows {
			t.Errorf("edge %s rows %d != %d", base.Edges[i].Edge, mixed.Edges[i].Rows, base.Edges[i].Rows)
		}
	}
}

// TestSameSeedDeterminism runs the multi-stage plan twice with one seed:
// the exported telemetry traces and the per-edge registry metrics must be
// byte-identical — the repo's strongest reproducibility oracle, extended
// to the DAG path.
func TestSameSeedDeterminism(t *testing.T) {
	run := func() (trace, report []byte) {
		const nodes, threads = 4, 2
		fact, dim := DemoTables(nodes, 2000, 250, 7)
		g := MultiStageDemo(fact, dim)
		c := cluster.New(quiet(fabric.EDR()), nodes, threads, 42)
		c.EnableTracing(1 << 15)
		res := g.Run(c, defaultFactory(threads))
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		var tb, rb bytes.Buffer
		if err := telemetry.WriteChromeEvents(&tb, c.Trace()); err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		res.PublishMetrics(reg)
		if err := telemetry.WriteReport(&rb, reg); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), rb.Bytes()
	}
	t1, r1 := run()
	t2, r2 := run()
	if !bytes.Equal(t1, t2) {
		t.Error("same-seed telemetry traces differ")
	}
	if !bytes.Equal(r1, r2) {
		t.Error("same-seed per-edge metric reports differ")
	}
	if len(r1) == 0 {
		t.Error("empty metrics report")
	}
}

// TestStageSpans checks the tracer records one EvStage span per
// sink-owning stage (forward-source stages share the downstream span).
func TestStageSpans(t *testing.T) {
	const nodes, rows = 2, 500
	tables := seqTables(nodes, rows)
	g := New()
	src := scanStage(g, "scan", tables)
	flt := passStage(g, "filter", 0, false)
	agg := g.AddStage(Stage{
		Name: "agg", Parallelism: 1, Stateful: true,
		Build: func(node int, in []engine.Operator) engine.Operator {
			return &engine.HashAgg{In: in[0], KeyCols: []int{0},
				Aggs: []engine.AggSpec{{Kind: engine.AggCount}}}
		},
	})
	g.Connect(src, flt) // forward: no span of its own
	g.Connect(flt, agg, WithKey(0))

	c := cluster.New(quiet(fabric.EDR()), nodes, 2, 42)
	c.EnableTracing(1 << 14)
	res := g.Run(c, defaultFactory(2))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	begins := map[int64]bool{}
	ends := map[int64]bool{}
	for _, ev := range c.Trace() {
		if ev.Name != telemetry.EvStage {
			continue
		}
		switch ev.Kind {
		case telemetry.KBegin:
			begins[ev.A] = true
		case telemetry.KEnd:
			ends[ev.A] = true
		}
	}
	// Stage ids: scan=0 (forward source, no span), filter=1, agg=2.
	for _, id := range []int64{int64(flt.ID()), int64(agg.ID())} {
		if !begins[id] || !ends[id] {
			t.Errorf("stage %d missing span (begin=%v end=%v)", id, begins[id], ends[id])
		}
	}
	if begins[int64(src.ID())] {
		t.Error("forward-source stage emitted its own span")
	}
}

// TestDagChaosSmoke drives the multi-stage plan through the rc-outage
// chaos fault in two explicit attempts: attempt 0 loses every RC packet
// into node 1, so the transport errors out, and attempt 1 reruns the plan on
// a fresh, clean cluster and must produce the right sum.
func TestDagChaosSmoke(t *testing.T) {
	const nodes, threads = 4, 2
	fact, dim := DemoTables(nodes, 800, 100, 7)
	cfg := shuffle.Config{Impl: shuffle.MQSR, Endpoints: threads,
		DepletedTimeout: 10 * time.Millisecond, StallTimeout: 120 * time.Millisecond}

	c := cluster.New(quiet(fabric.EDR()), nodes, threads, 42)
	c.Net.Faults().Add(fabric.FaultRule{
		Class: fabric.FaultRCLoss, From: fabric.AnyNode, To: 1,
	})
	if res := MultiStageDemo(fact, dim).Run(c, cluster.RDMAProvider(cfg)); res.Err == nil {
		t.Fatal("attempt 0 succeeded under total RC loss into node 1")
	}

	c = cluster.New(quiet(fabric.EDR()), nodes, threads, 42)
	res := MultiStageDemo(fact, dim).Run(c, cluster.RDMAProvider(cfg))
	if res.Err != nil {
		t.Fatalf("attempt 1 on a clean cluster: %v", res.Err)
	}
	if res.Result == nil || res.Result.N != 1 {
		t.Fatalf("attempt 1 produced no summary row")
	}
	sumVal := engine.RowFloat64(res.Result.Sch, res.Result.Row(0), 1)
	if want := float64(nodes) * 799 * 800 / 2; sumVal != want {
		t.Errorf("sum(val) = %v, want %v", sumVal, want)
	}
}

// ID returns the stage's index within its graph (also the A argument of
// its EvStage trace span).
func (s *Stage) ID() int { return s.id }

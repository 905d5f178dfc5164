package dag

import (
	"rshuffle/internal/engine"
)

// DemoTables builds per-node fragments of a synthetic star pair for the
// multi-stage exhibit: a fact table R(key, val) whose keys are randomized
// over the dimension domain, and a dimension table S(key, c) partitioned
// round-robin-free — node a holds the contiguous keys [a·dimRows,
// (a+1)·dimRows) with c = 3·key. Generation is seeded and deterministic.
func DemoTables(n, factRows, dimRows int, seed int64) (fact, dim []*engine.Table) {
	domain := int64(n * dimRows)
	fact = make([]*engine.Table, n)
	dim = make([]*engine.Table, n)
	for a := 0; a < n; a++ {
		f := engine.NewTable(engine.NewSchema(engine.TInt64, engine.TInt64)).Grow(factRows)
		fw := engine.NewWriter(f)
		x := uint64(seed) + uint64(a+1)*0x9E3779B97F4A7C15
		for i := 0; i < factRows; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			fw.SetInt64(0, int64(x%uint64(domain)))
			fw.SetInt64(1, int64(i))
			fw.Done()
		}
		fact[a] = f

		d := engine.NewTable(engine.NewSchema(engine.TInt64, engine.TInt64)).Grow(dimRows)
		dw := engine.NewWriter(d)
		for i := 0; i < dimRows; i++ {
			k := int64(a*dimRows + i)
			dw.SetInt64(0, k)
			dw.SetInt64(1, 3*k)
			dw.Done()
		}
		dim[a] = d
	}
	return fact, dim
}

// MultiStageDemo builds the repository's canonical genuinely multi-stage
// plan over DemoTables fragments:
//
//	fact-partial (per-node partial aggregation)
//	    │ hash on key            dim (dimension scan)
//	    ▼                          │ hash on key
//	  join (final agg merge ⨝ dim) ◀
//	    │ broadcast
//	    ▼
//	 report (global count + sums, replicated on every node)
//
// It exercises three edge types (two Hash fan-ins, one Broadcast) across
// three pipeline barriers; per-edge transports can be mixed afterwards via
// Graph.Edges and Edge.SetAlgorithm. The report stage's single output row
// is count(groups), sum(val-sums), sum(c) — a checksum of the whole
// dataflow that any wiring error perturbs.
func MultiStageDemo(fact, dim []*engine.Table) *Graph {
	g := New()

	partial := g.AddStage(Stage{
		Name: "fact-partial", Stateful: true,
		Build: func(node int, in []engine.Operator) engine.Operator {
			return &engine.HashAgg{
				In:      &engine.Scan{T: fact[node]},
				KeyCols: []int{0},
				Aggs: []engine.AggSpec{{Kind: engine.AggSum,
					Eval: func(b *engine.Batch, i int) float64 { return float64(b.Int64(i, 1)) }}},
			}
		},
	})
	dimScan := g.AddStage(Stage{
		Name: "dim",
		Build: func(node int, in []engine.Operator) engine.Operator {
			return &engine.Scan{T: dim[node]}
		},
	})
	join := g.AddStage(Stage{
		Name: "join", Stateful: true,
		Build: func(node int, in []engine.Operator) engine.Operator {
			// in[0] carries the partial aggregates (key, sum); merge them
			// into finals, then join with the co-partitioned dimension rows
			// arriving on in[1].
			final := &engine.HashAgg{
				In:      in[0],
				KeyCols: []int{0},
				Aggs: []engine.AggSpec{{Kind: engine.AggSum,
					Eval: func(b *engine.Batch, i int) float64 { return b.Float64(i, 1) }}},
			}
			return &engine.HashJoin{
				Build: final, Probe: in[1],
				BuildKey: 0, ProbeKey: 0,
			}
		},
	})
	report := g.AddStage(Stage{
		Name: "report", Stateful: true,
		Build: func(node int, in []engine.Operator) engine.Operator {
			// Join output: (key, sum, dimKey, c). With a broadcast inbound
			// edge every node aggregates the full join result, so all
			// replicas hold the identical global summary row.
			return &engine.HashAgg{
				In: in[0],
				Aggs: []engine.AggSpec{
					{Kind: engine.AggCount},
					{Kind: engine.AggSum,
						Eval: func(b *engine.Batch, i int) float64 { return b.Float64(i, 1) }},
					{Kind: engine.AggSum,
						Eval: func(b *engine.Batch, i int) float64 { return float64(b.Int64(i, 3)) }},
				},
			}
		},
	})

	g.Connect(partial, join, WithKey(0))      // detected: Hash
	g.Connect(dimScan, join, WithKey(0))      // detected: Hash
	g.Connect(join, report, WithReplicated()) // detected: Broadcast
	return g
}

package experiments

import (
	"fmt"

	"rshuffle/internal/cluster"
	"rshuffle/internal/dag"
	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
)

// ExtDag runs the multi-stage demo plan (partial aggregation → hash
// re-shuffle → join → broadcast) of internal/dag under each of the six
// Table 1 designs, plus one run that mixes transports per edge — the
// planner picks a different algorithm (and so RC vs UD) for every shuffle
// edge of the same query. The per-edge traffic columns come from the DAG
// runner's edge statistics; they are identical across algorithms because
// the plan, not the transport, determines what moves.
func ExtDag(o Options) (*Table, error) {
	prof := fabric.EDR()
	const nodes = 8
	factRows, dimRows := 40_000, 2_000
	if o.Fast {
		factRows, dimRows = 5_000, 500
	}
	fact, dim := dag.DemoTables(nodes, factRows, dimRows, 7)

	t := &Table{
		ID:    "Extension: shuffle-aware DAG execution graph",
		Title: fmt.Sprintf("multi-stage plan (partial agg → join → broadcast), %d nodes, EDR", nodes),
		Cols:  []string{"ms", "krows", "MiB", "kWQE"},
	}

	type variant struct {
		name  string
		tweak func(g *dag.Graph)
	}
	variants := make([]variant, 0, len(shuffle.Algorithms)+1)
	for _, a := range shuffle.Algorithms {
		a := a
		variants = append(variants, variant{a.Name, func(g *dag.Graph) {
			for _, e := range g.Edges() {
				e.SetAlgorithm(a, prof.Threads)
			}
		}})
	}
	// Mixed transports: RC for the hash re-shuffles, UD for the broadcast.
	variants = append(variants, variant{"mixed", func(g *dag.Graph) {
		es := g.Edges()
		es[0].SetAlgorithm(shuffle.Algorithm{Name: "MEMQ/SR", Impl: shuffle.MQSR, ME: true}, prof.Threads)
		es[1].SetAlgorithm(shuffle.Algorithm{Name: "MEMQ/RD", Impl: shuffle.MQRD, ME: true}, prof.Threads)
		es[2].SetAlgorithm(shuffle.Algorithm{Name: "MESQ/SR", Impl: shuffle.SQSR, ME: true}, prof.Threads)
	}})

	t.Rows = make([]Row, len(variants))
	cs := cells{o: o}
	for i, v := range variants {
		i, v := i, v
		cs.add(func() error {
			c := o.newCluster(quiet(prof), nodes, 0, o.Seed+int64(990+i))
			g := dag.MultiStageDemo(fact, dim)
			v.tweak(g)
			res := g.Run(c, cluster.RDMAProvider(shuffle.Config{Impl: shuffle.MQSR, Endpoints: prof.Threads}))
			if res.Err != nil {
				return fmt.Errorf("%s: %w", v.name, res.Err)
			}
			var rows, bytes, wrs int64
			for _, e := range res.Edges {
				rows += e.Rows
				bytes += e.Bytes
				wrs += e.WRs
			}
			t.Rows[i] = Row{Name: v.name, Vals: []float64{
				float64(res.Elapsed.Microseconds()) / 1e3,
				float64(rows) / 1e3,
				float64(bytes) / (1 << 20),
				float64(wrs) / 1e3,
			}}
			if i == 0 {
				for _, e := range res.Edges {
					t.Notes = append(t.Notes, fmt.Sprintf("edge %s (%s): %d rows, %d bytes",
						e.Edge, e.Type, e.Rows, e.Bytes))
				}
			}
			return nil
		})
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	return t, nil
}

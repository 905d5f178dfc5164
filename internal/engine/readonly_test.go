package engine_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"rshuffle/internal/engine"
	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// TestScanInputIsReadOnly: Scan hands out views of the table's own rows, so
// Operator.Next's contract — a consumer never writes its input batch — is
// what keeps a table intact. Drain a Scan straight into shuffle.Shuffle, and
// through Filter, Project, HashJoin and HashAgg into one, on a two-node
// cluster; every table's bytes must hash the same afterwards.
func TestScanInputIsReadOnly(t *testing.T) {
	const nodes, threads, rows = 2, 3, 20_000
	sch := engine.NewSchema(engine.TInt64, engine.TInt64, engine.TInt64)
	fact := make([]*engine.Table, nodes)
	dim := make([]*engine.Table, nodes)
	for a := range fact {
		fact[a], dim[a] = engine.NewTable(sch).Grow(rows), engine.NewTable(sch).Grow(rows/4)
		fw, dw := engine.NewWriter(fact[a]), engine.NewWriter(dim[a])
		for i := 0; i < rows; i++ {
			fw.SetInt64(0, int64(i*7+a))
			fw.SetInt64(1, int64(i%(rows/4)))
			fw.SetInt64(2, int64(i))
			fw.Done()
		}
		for i := 0; i < rows/4; i++ {
			dw.SetInt64(0, int64(i))
			dw.SetInt64(1, int64(3*i))
			dw.SetInt64(2, int64(a))
			dw.Done()
		}
	}
	plans := map[string]func(a int) engine.Operator{
		"scan": func(a int) engine.Operator { return &engine.Scan{T: fact[a]} },
		"pipeline": func(a int) engine.Operator {
			return &engine.HashAgg{
				In: &engine.HashJoin{
					Build: &engine.Scan{T: dim[a]},
					Probe: &engine.Project{
						In: &engine.Filter{In: &engine.Scan{T: fact[a]},
							Pred: func(b *engine.Batch, i int) bool { return b.Int64(i, 2)%3 != 0 }},
						Cols: []int{1, 0},
					},
				},
				KeyCols: []int{0, 2},
				Aggs: []engine.AggSpec{{Kind: engine.AggSum,
					Eval: func(b *engine.Batch, i int) float64 { return float64(b.Int64(i, 4)) }}},
			}
		},
	}
	digest := func() (sum [sha256.Size]byte) {
		h := sha256.New()
		for a := range fact {
			h.Write(fact[a].Data)
			h.Write(dim[a].Data)
		}
		copy(sum[:], h.Sum(nil))
		return sum
	}
	before := digest()
	for name, plan := range plans {
		s := sim.New(5)
		net := fabric.New(s, fabric.EDR(), nodes)
		devs := verbs.OpenAll(net)
		sends := make([]*shuffle.Shuffle, nodes)
		recvs := make([]*shuffle.Receive, nodes)
		sinks := make([]*engine.Sink, nodes)
		s.Spawn("query", func(p *sim.Proc) {
			comm := shuffle.Build(p, devs, shuffle.Algorithms[0].Config(threads), threads)
			for a := 0; a < nodes; a++ {
				ctx := &engine.Ctx{S: s, Prof: &net.Prof, Threads: threads, Node: a}
				sends[a] = &shuffle.Shuffle{In: plan(a), Comm: comm, Node: a,
					G: shuffle.Repartition(nodes), Key: shuffle.KeyInt64Col(0)}
				(&engine.Sink{In: sends[a]}).Run(ctx, fmt.Sprintf("send%d", a), nil)
				recvs[a] = &shuffle.Receive{Comm: comm, Node: a, Sch: sends[a].Schema()}
				sinks[a] = &engine.Sink{In: recvs[a]}
				sinks[a].Run(ctx, fmt.Sprintf("recv%d", a), nil)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := shuffle.CheckErr(sends, recvs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sinks[0].Rows+sinks[1].Rows == 0 {
			t.Errorf("%s: no rows crossed the shuffle", name)
		}
		if digest() != before {
			t.Errorf("%s: a table's bytes changed under its scan", name)
		}
	}
}

package experiments

import (
	"fmt"
	"math"

	"rshuffle/internal/cluster"
	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
)

// CreditFrequencies is the Fig. 8 sweep.
var CreditFrequencies = []int{1, 2, 3, 4, 8, 16}

// fig08 reproduces Figure 8: receive throughput of the four Send/Receive
// algorithms on 8 nodes as the credit write-back frequency varies, with the
// MPI and qperf reference lines, for FDR (a) and EDR (b).
func fig08() (x exhibit) {
	for _, prof := range []fabric.Profile{fabric.FDR(), fabric.EDR()} {
		sub := "(a)"
		if prof.Name == "EDR" {
			sub = "(b)"
		}
		t := &Table{
			ID:    "Figure 8" + sub,
			Title: fmt.Sprintf("receive throughput vs credit write-back frequency, 8 nodes, %s", prof.Name),
			Unit:  "GiB/s per node",
		}
		for _, f := range CreditFrequencies {
			t.Cols = append(t.Cols, fmt.Sprintf("f=%d", f))
		}
		for _, a := range fourSRAlgos {
			row := t.series(a.Name)
			for i, f := range CreditFrequencies {
				cfg := a.Config(prof.Threads)
				cfg.CreditFrequency = f
				x.cells = append(x.cells, cell{key: key("fig08", prof.Name, a.Name, t.Cols[i]),
					prof: prof, nodes: 8, cfg: cfg, seedOff: int64(i), out: []*float64{&row[i]}})
			}
		}
		// Reference lines: MPI (frequency-independent) and qperf.
		x.cells = append(x.cells,
			cell{key: key("fig08", prof.Name, "MPI"), prof: prof, nodes: 8, seedOff: 99,
				bench: cluster.BenchOpts{Factory: cluster.MPIProvider()}, out: slots(t.series("MPI"))},
			cell{key: key("fig08", prof.Name, "qperf"), prof: prof, body: qperfLine, out: slots(t.series("qperf"))})
		t.Notes = append(t.Notes,
			"paper: degradation from the credit mechanism is not significant; frequency fixed to 2")
		x.tables = append(x.tables, t)
	}
	return x
}

// fig09 reproduces Figure 9: the effect of message size under the Reliable
// Connection transport on EDR, 8 nodes — (a) receive throughput and (b)
// RDMA-registered memory of one shuffle operator.
func fig09() exhibit {
	sizes := []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	prof := fabric.EDR()
	algos := []shuffle.Algorithm{
		{Name: "MEMQ/RD", Impl: shuffle.MQRD, ME: true},
		{Name: "SEMQ/RD", Impl: shuffle.MQRD, ME: false},
		{Name: "MEMQ/SR", Impl: shuffle.MQSR, ME: true},
		{Name: "SEMQ/SR", Impl: shuffle.MQSR, ME: false},
		{Name: "MESQ/SR", Impl: shuffle.SQSR, ME: true},
		{Name: "SESQ/SR", Impl: shuffle.SQSR, ME: false},
	}
	thr := &Table{
		ID:    "Figure 9(a)",
		Title: "receive throughput vs message size, 8 nodes, EDR",
		Unit:  "GiB/s per node",
	}
	mem := &Table{
		ID:    "Figure 9(b)",
		Title: "registered memory of one send operator vs message size",
		Unit:  "MiB",
	}
	for _, s := range sizes {
		col := fmt.Sprintf("%dKiB", s>>10)
		if s >= 1<<20 {
			col = fmt.Sprintf("%dMiB", s>>20)
		}
		thr.Cols = append(thr.Cols, col)
		mem.Cols = append(mem.Cols, col)
	}
	var cells []cell
	for _, a := range algos {
		trow, mrow := thr.series(a.Name), mem.series(a.Name)
		for i, s := range sizes {
			if a.Impl == shuffle.SQSR && s != sizes[0] {
				// UD is capped at the MTU: a single point, as in the paper.
				trow[i], mrow[i] = math.NaN(), math.NaN()
				continue
			}
			cfg := a.Config(prof.Threads)
			cfg.BufSize = s
			cells = append(cells, cell{key: key("fig09", a.Name, thr.Cols[i]),
				prof: prof, nodes: 8, cfg: cfg, seedOff: int64(100 + i),
				read: gibpsAndMemory, out: []*float64{&trow[i], &mrow[i]}})
		}
	}
	thr.Notes = append(thr.Notes,
		"paper: SE throughput rises with message size then drops past the peak; ME stays stable",
		"message size fixed to 64 KiB for RC algorithms thereafter")
	mem.Notes = append(mem.Notes,
		"paper: UD needs under ~1 MiB of pinned memory; RC at 1 MiB messages exceeds 100 MiB")
	return exhibit{tables: []*Table{thr, mem}, cells: cells}
}

// gibpsAndMemory reads a Fig. 9 cell: throughput and the send operator's
// registered MiB.
func gibpsAndMemory(_ *cell, r *cluster.BenchResult, _ *cluster.Cluster, _ bool) []float64 {
	return []float64{r.GiBps(), float64(r.SendMemoryPerNode) / (1 << 20)}
}

package experiments

import (
	"fmt"
	"time"

	"rshuffle/internal/cluster"
	"rshuffle/internal/fabric"
	"rshuffle/internal/ipoib"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
)

// BurnSweep is the Fig. 13 x-axis: average time the receiving fragment
// takes to retrieve (and process) the next 32 KiB batch.
var BurnSweep = []sim.Duration{
	0, 2 * time.Microsecond, 4 * time.Microsecond, 6 * time.Microsecond,
	9 * time.Microsecond, 12 * time.Microsecond, 15 * time.Microsecond,
}

// fig13 reproduces Figure 13: relative shuffling throughput (shuffle
// throughput over the receiving fragment's processing throughput) as the
// receiving query fragment becomes compute intensive, on 8 EDR nodes.
// 100% means communication completely overlaps computation.
func fig13() (x exhibit) {
	prof := fabric.EDR()
	const batchBytes = 32 << 10
	t := &Table{
		ID:    "Figure 13",
		Title: "relative shuffling throughput vs compute intensity, 8 nodes, EDR",
		Unit:  "% of receiving-fragment processing throughput",
	}
	for _, b := range BurnSweep {
		t.Cols = append(t.Cols, fmt.Sprintf("%dus", b/time.Microsecond))
	}

	type entry struct {
		name string
		f    cluster.ProviderFactory // nil for an RDMA design
		cfg  shuffle.Config          // the design, or how a baseline is sized
	}
	var entries []entry
	for _, a := range shuffle.Algorithms {
		entries = append(entries, entry{a.Name, nil, a.Config(prof.Threads)})
	}
	entries = append(entries,
		entry{"MPI", cluster.MPIProvider(), shuffle.Config{Impl: shuffle.MQSR}},
		entry{"IPoIB", cluster.IPoIBProvider(ipoib.Config{}), shuffle.Config{Impl: shuffle.MQSR}},
	)

	for _, e := range entries {
		row := t.series(e.name)
		rows, passes := workload(e.cfg, prof, 8)
		// This experiment also needs enough 32 KiB batches per receiving
		// thread that per-thread quantization does not mask the overlap.
		const batchesPerThread = 25
		if need := batchesPerThread * prof.Threads * (batchBytes / 16); rows*passes < need {
			rows, passes = need, 1
		}
		for i, burn := range BurnSweep {
			// The x-axis is the fragment-wide batch-retrieval interval: all
			// threads snatch batches concurrently, so each thread's
			// per-batch burn is threads times the interval.
			x.cells = append(x.cells, cell{key: key("fig13", e.name, t.Cols[i]),
				prof: prof, nodes: 8, cfg: e.cfg, seedOff: int64(500 + i),
				bench: cluster.BenchOpts{Factory: e.f, RowsPerNode: rows, Passes: passes,
					BurnPerBatch: burn * sim.Duration(prof.Threads), ReceiveBatchBytes: batchBytes},
				read: relativeThroughput, out: []*float64{&row[i]}})
		}
	}
	t.Notes = append(t.Notes,
		"paper: all algorithms are network-bound at the left; MQ/SR and MESQ/SR reach 100% first,",
		"MQ/RD later; MPI and IPoIB never completely overlap communication with computation")
	x.tables = []*Table{t}
	return x
}

// relativeThroughput reads a Fig. 13 cell: the receiving fragment's compute
// time over the elapsed time, in percent, capped at 100.
func relativeThroughput(c *cell, r *cluster.BenchResult, cl *cluster.Cluster, _ bool) []float64 {
	rel := 100.0
	if perThreadBurn := c.bench.BurnPerBatch; perThreadBurn > 0 {
		// Actual burn periods on node 0 (counting partial tail batches),
		// spread over the fragment's threads.
		computeTime := float64(r.BurnBatches) * perThreadBurn.Seconds() / float64(cl.Threads)
		rel = 100 * computeTime / r.Elapsed.Seconds()
	} else {
		// Network-bound leftmost point: shuffle throughput relative to the
		// fragment's peak consumption rate (~50 GiB/s).
		rel = 100 * r.GiBps() / 50
	}
	return []float64{min(rel, 100)}
}

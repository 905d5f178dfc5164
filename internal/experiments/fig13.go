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

// Fig13 reproduces Figure 13: relative shuffling throughput (shuffle
// throughput over the receiving fragment's processing throughput) as the
// receiving query fragment becomes compute intensive, on 8 EDR nodes.
// 100% means communication completely overlaps computation.
func Fig13(o Options) (*Table, error) {
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
		f    cluster.ProviderFactory
		cfg  shuffle.Config // for workload sizing
	}
	var entries []entry
	for _, a := range shuffle.Algorithms {
		cfg := a.Config(prof.Threads)
		entries = append(entries, entry{a.Name, cluster.RDMAProvider(cfg), cfg})
	}
	entries = append(entries,
		entry{"MPI", cluster.MPIProvider(), shuffle.Config{Impl: shuffle.MQSR}},
		entry{"IPoIB", cluster.IPoIBProvider(ipoib.Config{}), shuffle.Config{Impl: shuffle.MQSR}},
	)

	cs := cells{o: o}
	for _, e := range entries {
		row := Row{Name: e.name, Vals: make([]float64, len(BurnSweep))}
		rows, passes := o.workload(e.cfg, prof, 8)
		// This experiment also needs enough 32 KiB batches per receiving
		// thread that per-thread quantization does not mask the overlap.
		batchesPerThread := 50
		if o.Fast {
			batchesPerThread = 25
		}
		if need := batchesPerThread * prof.Threads * (batchBytes / 16); rows*passes < need {
			rows, passes = need, 1
		}
		for i, burn := range BurnSweep {
			cs.add(func() error {
				// The x-axis is the fragment-wide batch-retrieval interval: all
				// threads snatch batches concurrently, so each thread's
				// per-batch burn is threads times the interval.
				res, _, err := o.runBench(prof, 8, 0, int64(500+i), cluster.BenchOpts{
					Factory: e.f, RowsPerNode: rows, Passes: passes,
					BurnPerBatch: burn * sim.Duration(prof.Threads), ReceiveBatchBytes: batchBytes,
				})
				if err != nil {
					return fmt.Errorf("%s burn=%v: %w", e.name, burn, err)
				}
				// Processing throughput of the receiving fragment: t threads
				// each consuming one 32 KiB batch per burn period.
				rel := 100.0
				if burn > 0 {
					// Actual burn periods on node 0 (counting partial tail
					// batches), spread over the fragment's threads.
					perThreadBurn := burn * sim.Duration(prof.Threads)
					computeTime := float64(res.BurnBatches) * perThreadBurn.Seconds() / float64(prof.Threads)
					rel = 100 * computeTime / res.Elapsed.Seconds()
				} else {
					// Network-bound leftmost point: shuffle throughput relative
					// to the fragment's peak consumption rate (~50 GiB/s).
					rel = 100 * res.GiBps() / 50
				}
				if rel > 100 {
					rel = 100
				}
				row.Vals[i] = rel
				return nil
			})
		}
		t.Rows = append(t.Rows, row)
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper: all algorithms are network-bound at the left; MQ/SR and MESQ/SR reach 100% first,",
		"MQ/RD later; MPI and IPoIB never completely overlap communication with computation")
	return t, nil
}

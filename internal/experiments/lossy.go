package experiments

import (
	"rshuffle/internal/cluster"
	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
)

// extLossy reruns the Table 1 design matrix on the lossy RoCEv2 tier: the
// same six designs, on converged Ethernet where the switch can actually
// drop packets, with and without the DCQCN congestion-control loop. The
// lossless RoCE column is the baseline the extension is judged against.
// A cell counts only if the query delivered every row (RunBench reports a
// short delivery as an error). A transport failure is a result on the lossy
// tier, not a broken experiment — UD designs lose datagrams on tail drop,
// RC designs can exhaust retry budgets — so it reads '-'; the lossless
// column must still error out loudly (runCell).
func extLossy() (x exhibit) {
	matrix := &Table{
		ID:    "Extension: lossy RoCEv2 — Table 1 matrix",
		Title: "repartition throughput on lossy Ethernet, 8 nodes ('-' = query failed)",
		Unit:  "GiB/s per node",
		Cols:  []string{"lossless", "lossy-cc", "lossy+cc"},
	}
	profs := []fabric.Profile{fabric.RoCE(), lossyNoCC(), fabric.RoCEv2Lossy()}
	for _, a := range shuffle.Algorithms {
		row := matrix.series(a.Name)
		for i, prof := range profs {
			x.cells = append(x.cells, cell{key: key("ext-lossy", matrix.Cols[i], a.Name),
				prof: prof, nodes: 8, cfg: a.Config(prof.Threads), seedOff: int64(1200 + i),
				out: []*float64{&row[i]}})
		}
	}
	matrix.Notes = append(matrix.Notes,
		"per-thread endpoints (ME) and the UD designs keep their Table 1 places: queues stay",
		"shallow and PFC plus go-back-N absorb the few drops. A single endpoint (SEMQ) puts all",
		"14 threads' traffic to a peer on one RC flow, so each drop stalls them all for an ACK",
		"timeout and discards every buffer in flight behind it: half the throughput, or dead")

	// The crossover exhibit: a Zipf-skewed shuffle whose hot receiver
	// congests one switch port. Without DCQCN the committed windows overrun
	// the shared buffer, go-back-N burns ACK timeouts, and sustained drops
	// exhaust the retry budget; with it the run completes on some seeds only
	// (the rate is asserted by TestLossyIncastDCQCNDegradationWhenDisabled),
	// so one seed's cell here is an outcome, not the finding.
	incast := &Table{
		ID:    "Extension: lossy RoCEv2 — skewed incast crossover",
		Title: "MEMQ/SR, 8 nodes, Zipf 1.0 toward node 0 (elapsed in ms; 0 = query failed)",
		Cols:  []string{"elapsed", "drops", "retries", "pauses"},
	}
	const threads = 2
	cfg := shuffle.Algorithms[0].Config(threads) // MEMQ/SR
	cfg.BuffersPerPeer = 8
	cfg.BufSize = 32 << 10
	for _, prof := range []fabric.Profile{fabric.RoCEv2Lossy(), lossyNoCC()} {
		name := "DCQCN on"
		if !prof.DCQCN {
			name = "DCQCN off"
		}
		x.cells = append(x.cells, cell{key: key("ext-lossy", "incast", name),
			prof: prof, nodes: 8, threads: threads, cfg: cfg,
			bench: cluster.BenchOpts{RowsPerNode: 262144, ZipfExponent: 1.0},
			read:  incastCounters, out: slots(incast.series(name))})
	}
	incast.Notes = append(incast.Notes,
		"the crossover the extension exists for: with congestion control off the incast",
		"tail-drops whole send windows until retry budgets exhaust and the query dies;",
		"with it on, some seeds complete (rate: TestLossyIncastDCQCNDegradationWhenDisabled), every row in RC order, through",
		"300-450 drops and their replays; the rest lose one sender QP to retry exhaustion")
	x.tables = []*Table{matrix, incast}
	return x
}

// incastCounters reads an incast cell: elapsed ms (0 when the query died, a
// data point here, not a broken cell) and the fabric's drops, transport
// retries and PFC pauses summed over the cluster.
func incastCounters(_ *cell, r *cluster.BenchResult, cl *cluster.Cluster, failed bool) []float64 {
	var drops, pauses, retries float64
	for n := 0; n < cl.N; n++ {
		st := cl.Net.Stats(n)
		drops += float64(st.TailDrops)
		pauses += float64(st.PFCPausesSent)
	}
	for _, d := range cl.Devs {
		retries += float64(d.Stats().TransportRetries)
	}
	elapsed := float64(r.Elapsed.Microseconds()) / 1000
	if failed {
		elapsed = 0
	}
	return []float64{elapsed, drops, retries, pauses}
}

// lossyNoCC is the lossy tier with the DCQCN loop disabled: PFC and ECN
// marking still run, but nobody answers the marks.
func lossyNoCC() fabric.Profile {
	p := fabric.RoCEv2Lossy()
	p.DCQCN = false
	return p
}

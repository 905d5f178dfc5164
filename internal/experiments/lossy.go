package experiments

import (
	"fmt"
	"math"

	"rshuffle/internal/cluster"
	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
)

// ExtLossy reruns the Table 1 design matrix on the lossy RoCEv2 tier: the
// same six designs, on converged Ethernet where the switch can actually
// drop packets, with and without the DCQCN congestion-control loop. The
// lossless RoCE column is the baseline the extension is judged against.
// A cell counts only if the query delivered every row (RunBench reports a
// short delivery as an error).
func ExtLossy(o Options) ([]*Table, error) {
	matrix := &Table{
		ID:    "Extension: lossy RoCEv2 — Table 1 matrix",
		Title: "repartition throughput on lossy Ethernet, 8 nodes ('-' = query failed)",
		Unit:  "GiB/s per node",
		Cols:  []string{"lossless", "lossy-cc", "lossy+cc"},
	}
	profs := []fabric.Profile{fabric.RoCE(), lossyNoCC(), fabric.RoCEv2Lossy()}
	cs := cells{o: o}
	for _, a := range shuffle.Algorithms {
		row := Row{Name: a.Name, Vals: make([]float64, len(profs))}
		for i, prof := range profs {
			cs.add(func() error {
				res, err := o.runThroughput(prof, a.Config(prof.Threads), 8, nil, int64(1200+i))
				if err != nil {
					// A transport failure is a result on the lossy tier, not a
					// broken experiment: UD designs lose datagrams on tail
					// drop, RC designs can exhaust retry budgets. The paper's
					// lossless columns must still error out loudly.
					if i == 0 {
						return fmt.Errorf("%s on %s: %w", a.Name, prof.Name, err)
					}
					row.Vals[i] = math.NaN()
					return nil
				}
				row.Vals[i] = res.GiBps()
				return nil
			})
		}
		matrix.Rows = append(matrix.Rows, row)
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	matrix.Notes = append(matrix.Notes,
		"per-thread endpoints (ME) and the UD designs keep their Table 1 places: queues stay",
		"shallow and PFC plus go-back-N absorb the few drops. A single endpoint (SEMQ) puts all",
		"14 threads' traffic to a peer on one RC flow, so each drop stalls them all for an ACK",
		"timeout and discards every buffer in flight behind it: half the throughput, or dead")

	incast, err := extLossyIncast(o)
	if err != nil {
		return nil, err
	}
	return []*Table{matrix, incast}, nil
}

// extLossyIncast is the crossover exhibit: a Zipf-skewed shuffle whose hot
// receiver congests one switch port. Without DCQCN the committed windows
// overrun the shared buffer, go-back-N burns ACK timeouts, and sustained
// drops exhaust the retry budget; with it the run completes on some seeds
// only (the rate is asserted by TestLossyIncastDCQCNDegradationWhenDisabled),
// so one seed's cell here is an outcome, not the finding.
func extLossyIncast(o Options) (*Table, error) {
	t := &Table{
		ID:    "Extension: lossy RoCEv2 — skewed incast crossover",
		Title: "MEMQ/SR, 8 nodes, Zipf 1.0 toward node 0 (elapsed in ms; 0 = query failed)",
		Cols:  []string{"elapsed", "drops", "retries", "pauses"},
	}
	rows := 262144
	if !o.Fast {
		rows *= 4
	}
	for _, on := range []bool{true, false} {
		prof := fabric.RoCEv2Lossy()
		prof.DCQCN = on
		name := "DCQCN on"
		if !on {
			name = "DCQCN off"
		}
		const threads = 2
		cfg := shuffle.Algorithms[0].Config(threads) // MEMQ/SR
		cfg.BuffersPerPeer = 8
		cfg.BufSize = 32 << 10
		res, c, err := o.runBench(prof, 8, threads, 0, cluster.BenchOpts{
			Factory: cluster.RDMAProvider(cfg), RowsPerNode: rows, ZipfExponent: 1.0,
		})
		if res == nil {
			return nil, err
		}
		var drops, pauses, retries float64
		for n := 0; n < 8; n++ {
			st := c.Net.Stats(n)
			drops += float64(st.TailDrops)
			pauses += float64(st.PFCPausesSent)
		}
		for _, d := range c.Devs {
			retries += float64(d.Stats().TransportRetries)
		}
		elapsed := float64(res.Elapsed.Microseconds()) / 1000
		if err != nil {
			elapsed = 0 // the query died: a data point here, not a broken cell
		}
		t.Rows = append(t.Rows, Row{Name: name, Vals: []float64{elapsed, drops, retries, pauses}})
	}
	t.Notes = append(t.Notes,
		"the crossover the extension exists for: with congestion control off the incast",
		"tail-drops whole send windows until retry budgets exhaust and the query dies;",
		"with it on, some seeds complete (rate: TestLossyIncastDCQCNDegradationWhenDisabled), every row in RC order, through",
		"300-450 drops and their replays; the rest lose one sender QP to retry exhaustion")
	return t, nil
}

// lossyNoCC is the lossy tier with the DCQCN loop disabled: PFC and ECN
// marking still run, but nobody answers the marks.
func lossyNoCC() fabric.Profile {
	p := fabric.RoCEv2Lossy()
	p.DCQCN = false
	return p
}

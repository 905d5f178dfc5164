package experiments

import (
	"fmt"
	"math"

	"rshuffle/internal/cluster"
	"rshuffle/internal/fabric"
	"rshuffle/internal/qperf"
	"rshuffle/internal/shuffle"
)

// CreditFrequencies is the Fig. 8 sweep.
var CreditFrequencies = []int{1, 2, 3, 4, 8, 16}

// Fig08 reproduces Figure 8: receive throughput of the four Send/Receive
// algorithms on 8 nodes as the credit write-back frequency varies, with the
// MPI and qperf reference lines, for FDR (a) and EDR (b).
func Fig08(o Options) ([]*Table, error) {
	var out []*Table
	cs := cells{o: o}
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
			row := Row{Name: a.Name, Vals: make([]float64, len(CreditFrequencies))}
			for i, f := range CreditFrequencies {
				cs.add(func() error {
					cfg := a.Config(prof.Threads)
					cfg.CreditFrequency = f
					res, err := o.runThroughput(prof, cfg, 8, nil, int64(i))
					if err != nil {
						return fmt.Errorf("%s f=%d: %w", a.Name, f, err)
					}
					row.Vals[i] = res.GiBps()
					return nil
				})
			}
			t.Rows = append(t.Rows, row)
		}

		// Reference lines: MPI (frequency-independent) and qperf.
		mrow := Row{Name: "MPI", Vals: make([]float64, len(CreditFrequencies))}
		qrow := Row{Name: "qperf", Vals: make([]float64, len(CreditFrequencies))}
		cs.add(func() error {
			rows, passes := o.workload(shuffle.Config{Impl: shuffle.MQSR}, prof, 8)
			mres, _, err := o.runBench(prof, 8, 0, 99, cluster.BenchOpts{
				Factory: cluster.MPIProvider(), RowsPerNode: rows, Passes: passes,
			})
			if err != nil {
				return err
			}
			for i := range mrow.Vals {
				mrow.Vals[i] = mres.GiBps()
			}
			return nil
		})
		cs.add(func() error {
			q := qperf.Run(prof, 64<<10, 1<<30).GiBps()
			for i := range qrow.Vals {
				qrow.Vals[i] = q
			}
			return nil
		})
		t.Rows = append(t.Rows, mrow, qrow)
		t.Notes = append(t.Notes,
			"paper: degradation from the credit mechanism is not significant; frequency fixed to 2")
		out = append(out, t)
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	return out, nil
}

// Fig09 reproduces Figure 9: the effect of message size under the Reliable
// Connection transport on EDR, 8 nodes — (a) receive throughput and (b)
// RDMA-registered memory of one shuffle operator.
func Fig09(o Options) ([]*Table, error) {
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
	cs := cells{o: o}
	for _, a := range algos {
		trow := Row{Name: a.Name, Vals: make([]float64, len(sizes))}
		mrow := Row{Name: a.Name, Vals: make([]float64, len(sizes))}
		for i, s := range sizes {
			if a.Impl == shuffle.SQSR && s != sizes[0] {
				// UD is capped at the MTU: a single point, as in the paper.
				trow.Vals[i] = math.NaN()
				mrow.Vals[i] = math.NaN()
				continue
			}
			cs.add(func() error {
				cfg := a.Config(prof.Threads)
				cfg.BufSize = s
				res, err := o.runThroughput(prof, cfg, 8, nil, int64(100+i))
				if err != nil {
					return fmt.Errorf("%s size=%d: %w", a.Name, s, err)
				}
				trow.Vals[i] = res.GiBps()
				mrow.Vals[i] = float64(res.SendMemoryPerNode) / (1 << 20)
				return nil
			})
		}
		thr.Rows = append(thr.Rows, trow)
		mem.Rows = append(mem.Rows, mrow)
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	thr.Notes = append(thr.Notes,
		"paper: SE throughput rises with message size then drops past the peak; ME stays stable",
		"message size fixed to 64 KiB for RC algorithms thereafter")
	mem.Notes = append(mem.Notes,
		"paper: UD needs under ~1 MiB of pinned memory; RC at 1 MiB messages exceeds 100 MiB")
	return []*Table{thr, mem}, nil
}

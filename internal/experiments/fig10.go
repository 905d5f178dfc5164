package experiments

import (
	"fmt"

	"rshuffle/internal/cluster"
	"rshuffle/internal/fabric"
	"rshuffle/internal/ipoib"
	"rshuffle/internal/qperf"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
)

// ScaleOutNodes is the Fig. 10 cluster-size sweep.
var ScaleOutNodes = []int{2, 4, 8, 16}

// Fig10 reproduces Figure 10: per-node receive throughput of the six RDMA
// designs plus MPI and IPoIB as the cluster grows, for the repartition and
// broadcast patterns on both FDR and EDR.
func Fig10(o Options) ([]*Table, error) {
	var out []*Table
	cs := cells{o: o}
	subs := []string{"(a)", "(b)", "(c)", "(d)"}
	si := 0
	for _, prof := range []fabric.Profile{fabric.FDR(), fabric.EDR()} {
		for _, pattern := range []string{"repartition", "broadcast"} {
			t := &Table{
				ID:    "Figure 10" + subs[si],
				Title: fmt.Sprintf("%s throughput vs cluster size, %s", pattern, prof.Name),
				Unit:  "GiB/s per node",
			}
			si++
			for _, n := range ScaleOutNodes {
				t.Cols = append(t.Cols, fmt.Sprintf("%dn", n))
			}
			groupsFor := func(n int) shuffle.Groups {
				if pattern == "broadcast" {
					return shuffle.Broadcast(n)
				}
				return shuffle.Repartition(n)
			}
			for _, a := range shuffle.Algorithms {
				row := Row{Name: a.Name, Vals: make([]float64, len(ScaleOutNodes))}
				for i, n := range ScaleOutNodes {
					cs.add(func() error {
						cfg := a.Config(prof.Threads)
						res, err := o.runThroughput(prof, cfg, n, groupsFor(n), int64(200+i))
						if err != nil {
							return fmt.Errorf("%s %s %dn: %w", a.Name, pattern, n, err)
						}
						row.Vals[i] = res.GiBps()
						return nil
					})
				}
				t.Rows = append(t.Rows, row)
			}
			for _, base := range []struct {
				name string
				f    cluster.ProviderFactory
			}{
				{"MPI", cluster.MPIProvider()},
				{"IPoIB", cluster.IPoIBProvider(ipoib.Config{})},
			} {
				row := Row{Name: base.name, Vals: make([]float64, len(ScaleOutNodes))}
				for i, n := range ScaleOutNodes {
					cs.add(func() error {
						rows, passes := o.workloadFor(shuffle.Config{Impl: shuffle.MQSR}, prof, n, groupsFor(n))
						res, _, err := o.runBench(prof, n, 0, int64(300+i), cluster.BenchOpts{
							Factory: base.f, RowsPerNode: rows, Passes: passes, Groups: groupsFor(n),
						})
						if err != nil {
							return fmt.Errorf("%s %s %dn: %w", base.name, pattern, n, err)
						}
						row.Vals[i] = res.GiBps()
						return nil
					})
				}
				t.Rows = append(t.Rows, row)
			}
			if pattern == "repartition" {
				row := Row{Name: "qperf", Vals: make([]float64, len(ScaleOutNodes))}
				cs.add(func() error {
					q := qperf.Run(prof, 64<<10, 1<<30).GiBps()
					for i := range row.Vals {
						row.Vals[i] = q
					}
					return nil
				})
				t.Rows = append(t.Rows, row)
				t.Notes = append(t.Notes, "qperf measures a single pair and is shown as a constant line")
			}
			out = append(out, t)
		}
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	return out, nil
}

// Fig11 reproduces Figure 11: receive throughput on 16 EDR nodes as the
// number of Queue Pairs per operator varies, by sweeping the endpoint count
// e for each implementation (SE = 1, ME = t, and intermediate values).
func Fig11(o Options) (*Table, error) {
	prof := fabric.EDR()
	endpoints := []int{1, 2, 7, 14}
	t := &Table{
		ID:    "Figure 11",
		Title: "throughput vs Queue Pairs per operator, 16 nodes, EDR (repartition)",
		Unit:  "GiB/s per node",
	}
	impls := []struct {
		name string
		impl shuffle.Impl
	}{
		{"SQ/SR", shuffle.SQSR},
		{"MQ/SR", shuffle.MQSR},
		{"MQ/RD", shuffle.MQRD},
	}
	for _, e := range endpoints {
		t.Cols = append(t.Cols, fmt.Sprintf("e=%d", e))
	}
	cs := cells{o: o}
	for _, im := range impls {
		row := Row{Name: im.name, Vals: make([]float64, len(endpoints))}
		qps := Row{Name: im.name + " QPs", Vals: make([]float64, len(endpoints))}
		for i, e := range endpoints {
			cs.add(func() error {
				cfg := shuffle.Config{Impl: im.impl, Endpoints: e}
				res, err := o.runThroughput(prof, cfg, 16, nil, int64(400+i))
				if err != nil {
					return fmt.Errorf("%s e=%d: %w", im.name, e, err)
				}
				row.Vals[i] = res.GiBps()
				qps.Vals[i] = float64(res.QPsPerOperator)
				return nil
			})
		}
		t.Rows = append(t.Rows, row, qps)
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"QPs per operator: e for SQ, e*n for MQ — the paper's x-axis values 1,2,7,14,16,32,112,224",
		"paper: MESQ/SR reaches higher throughput with far fewer Queue Pairs than the MQ designs")
	return t, nil
}

// Fig12 reproduces Figure 12: time to build the RDMA connections as the
// cluster size grows, per algorithm.
func Fig12(o Options) (*Table, error) {
	prof := fabric.EDR()
	sizes := []int{2, 4, 6, 8, 10, 12, 14, 16}
	t := &Table{
		ID:    "Figure 12",
		Title: "time to build RDMA connections vs cluster size, EDR",
		Unit:  "ms",
	}
	for _, n := range sizes {
		t.Cols = append(t.Cols, fmt.Sprintf("%dn", n))
	}
	cs := cells{o: o}
	for _, a := range shuffle.Algorithms {
		row := Row{Name: a.Name, Vals: make([]float64, len(sizes))}
		for i, n := range sizes {
			cs.add(func() error {
				c := o.newCluster(quiet(prof), n, 0, o.Seed)
				return c.Run(&cluster.Query{Name: "setup", Setup: func(p *sim.Proc) {
					comm := shuffle.Build(p, c.Devs, a.Config(prof.Threads), c.Threads)
					row.Vals[i] = comm.SetupTime.Seconds() * 1e3
				}})
			})
		}
		t.Rows = append(t.Rows, row)
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper: ME algorithms connect more endpoints than SE; MQ grows linearly with cluster size,",
		"SQ stays flat — MESQ/SR stays under 40 ms; memory (de)registration is separate and <5 ms")
	return t, nil
}

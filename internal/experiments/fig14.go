package experiments

import (
	"fmt"
	"math"

	"rshuffle/internal/cluster"
	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
	"rshuffle/internal/tpch"
)

// sfPerNode is the scaled-down substitute for the paper's 100 GiB (scale
// factor 100) per node; virtual-time response scales with data volume, so
// the MPI/MESQ-SR/local comparisons are volume-independent ratios.
func (o Options) sfPerNode() float64 {
	if o.Fast {
		return 0.02
	}
	return 0.05
}

func mesqFactory(threads int) cluster.ProviderFactory {
	return cluster.RDMAProvider(shuffle.Config{Impl: shuffle.SQSR, Endpoints: threads})
}

// runTPCH is the one door for a TPC-H cell: it boots the cell's cluster
// (quiet profile, the run's seed, on the engine -lps selects), runs query q
// through its DAG plan and folds the first transport error into the
// returned error.
func (o Options) runTPCH(prof fabric.Profile, nodes int, db *tpch.DB, q int, f cluster.ProviderFactory, local bool) (*tpch.QueryResult, error) {
	r, _, err := tpch.Run(o.newCluster(quiet(prof), nodes, 0, o.Seed), db, q, f, local)
	if err == nil {
		err = r.Err
	}
	return r, err
}

// Fig14a reproduces Figure 14(a): TPC-H Q4 response time on 8 nodes when
// upgrading from FDR to EDR, for MPI, MESQ/SR and the co-partitioned
// "local data" plan.
func Fig14a(o Options) (*Table, error) {
	t := &Table{
		ID:    "Figure 14(a)",
		Title: "TPC-H Q4 response time, 8 nodes, network upgrade",
		Unit:  "ms",
		Cols:  []string{"FDR", "EDR"},
	}
	rows := map[string]*Row{
		"MPI":        {Name: "MPI", Vals: make([]float64, 2)},
		"MESQ/SR":    {Name: "MESQ/SR", Vals: make([]float64, 2)},
		"local data": {Name: "local data", Vals: make([]float64, 2)},
	}
	plans := []struct {
		name  string
		part  tpch.Layout
		local bool
	}{
		{"MPI", tpch.Random, false},
		{"MESQ/SR", tpch.Random, false},
		{"local data", tpch.CoPartitioned, true},
	}
	cs := cells{o: o}
	for pi, prof := range []fabric.Profile{fabric.FDR(), fabric.EDR()} {
		// One cell per (profile, plan); each generates its own database so
		// cells stay independent.
		for _, pl := range plans {
			cs.add(func() error {
				db := tpch.Generate(o.sfPerNode()*8, 8, pl.part, o.Seed)
				f := mesqFactory(prof.Threads)
				if pl.name == "MPI" {
					f = cluster.MPIProvider()
				}
				r, err := o.runTPCH(prof, 8, db, 4, f, pl.local)
				if err != nil {
					return fmt.Errorf("Q4 %s on %s: %w", pl.name, prof.Name, err)
				}
				rows[pl.name].Vals[pi] = r.Elapsed.Seconds() * 1e3
				return nil
			})
		}
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	t.Rows = []Row{*rows["MPI"], *rows["MESQ/SR"], *rows["local data"]}
	t.Notes = append(t.Notes,
		"paper: MESQ/SR matches the no-shuffle local plan (full overlap) and its gain from the",
		"upgrade keeps pace with local processing (~50%), while MPI improves only ~30%")
	return t, nil
}

// Fig14bcd reproduces Figures 14(b), (c) and (d): response time of Q4, Q3
// and Q10 as the database grows in proportion to the cluster (scale factor
// per node held constant), EDR, for MPI and MESQ/SR (plus the local plan
// for Q4).
func Fig14bcd(o Options) ([]*Table, error) {
	prof := fabric.EDR()
	nodes := []int{2, 4, 8, 16}
	type qdef struct {
		id, name string
		q        int
		local    bool // also plot the co-partitioned plan
	}
	defs := []qdef{
		{"Figure 14(b)", "TPC-H Q4", 4, true},
		{"Figure 14(c)", "TPC-H Q3", 3, false},
		{"Figure 14(d)", "TPC-H Q10", 10, false},
	}
	var out []*Table
	cs := cells{o: o}
	for _, q := range defs {
		t := &Table{
			ID:    q.id,
			Title: q.name + " response time vs cluster size (database grows with cluster), EDR",
			Unit:  "ms",
		}
		for _, n := range nodes {
			t.Cols = append(t.Cols, fmt.Sprintf("%dn", n))
		}
		mpiRow := Row{Name: "MPI", Vals: make([]float64, len(nodes))}
		rdmaRow := Row{Name: "MESQ/SR", Vals: make([]float64, len(nodes))}
		localRow := Row{Name: "local data", Vals: make([]float64, len(nodes))}
		for i, n := range nodes {
			cs.add(func() error {
				sf := o.sfPerNode() * float64(n)
				db := tpch.Generate(sf, n, tpch.Random, o.Seed)
				m, merr := o.runTPCH(prof, n, db, q.q, cluster.MPIProvider(), false)
				r, rerr := o.runTPCH(prof, n, db, q.q, mesqFactory(prof.Threads), false)
				if merr != nil || rerr != nil {
					return fmt.Errorf("%s at %dn: mpi=%v rdma=%v", q.name, n, merr, rerr)
				}
				mpiRow.Vals[i] = m.Elapsed.Seconds() * 1e3
				rdmaRow.Vals[i] = r.Elapsed.Seconds() * 1e3
				if !q.local {
					localRow.Vals[i] = math.NaN()
					return nil
				}
				dbl := tpch.Generate(sf, n, tpch.CoPartitioned, o.Seed)
				l, err := o.runTPCH(prof, n, dbl, q.q, mesqFactory(prof.Threads), true)
				if err != nil {
					return fmt.Errorf("%s local at %dn: %v", q.name, n, err)
				}
				localRow.Vals[i] = l.Elapsed.Seconds() * 1e3
				return nil
			})
		}
		t.Rows = []Row{mpiRow, rdmaRow}
		if q.local {
			t.Rows = append(t.Rows, localRow)
			t.Notes = append(t.Notes,
				"the optimal line rises with cluster size because of the broadcast pattern")
		}
		t.Notes = append(t.Notes,
			"paper: MESQ/SR scales better than MPI — ~70% faster for Q4, ~55% for Q3, ~2x for Q10 at 16 nodes")
		out = append(out, t)
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	return out, nil
}

// Table1 reproduces Table 1: the design-space summary, with the Queue Pair
// counts verified against the built communication layers (n = 16 nodes,
// t = 14 threads).
func Table1(o Options) (*Table, error) {
	const n, threads = 16, 14
	t := &Table{
		ID:    "Table 1",
		Title: fmt.Sprintf("design alternatives for n=%d nodes, t=%d threads", n, threads),
		Cols:  []string{"QPs/node"},
	}
	prof := fabric.EDR()
	t.Rows = make([]Row, len(shuffle.Algorithms))
	cs := cells{o: o}
	for ai, a := range shuffle.Algorithms {
		t.Rows[ai] = Row{Name: a.Name, Vals: make([]float64, 1)}
		cs.add(func() error {
			c := o.newCluster(quiet(prof), n, threads, o.Seed)
			var qps int
			if err := c.Run(&cluster.Query{Name: "census", Setup: func(p *sim.Proc) {
				qps = shuffle.Build(p, c.Devs, a.Config(threads), threads).QPsPerOperator
			}}); err != nil {
				return err
			}
			want := map[string]int{
				"MEMQ/SR": n * threads, "MEMQ/RD": n * threads,
				"SEMQ/SR": n, "SEMQ/RD": n,
				"MESQ/SR": threads, "SESQ/SR": 1,
			}[a.Name]
			if qps != want {
				return fmt.Errorf("%s: built %d QPs per operator, Table 1 says %d", a.Name, qps, want)
			}
			t.Rows[ai].Vals[0] = float64(qps)
			return nil
		})
	}
	if err := cs.run(); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"contention: none (ME), moderate (SEMQ), excessive (SESQ); messaging: RC round-trip w/ hardware",
		"error control up to 1 GiB, UD half-trip w/ software error control up to 4 KiB (paper Table 1)")
	return t, nil
}

package experiments

import (
	"fmt"
	"strconv"

	"rshuffle/internal/cluster"
	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/tpch"
)

// sfPerNode is the scaled-down substitute for the paper's 100 GiB (scale
// factor 100) per node; virtual-time response scales with data volume, so
// the MPI/MESQ-SR/local comparisons are volume-independent ratios.
const sfPerNode = 0.02

// mesq is the MESQ/SR design the TPC-H exhibits run.
func mesq(threads int) shuffle.Config {
	return shuffle.Config{Impl: shuffle.SQSR, Endpoints: threads}
}

// runTPCH runs query q over db through its DAG plan on the cell's cluster
// with transport f, and folds the first transport error into the returned
// error. It returns the response time in ms.
func (o Options) runTPCH(c *cell, f cluster.ProviderFactory, db *tpch.DB, q int, local bool) (float64, error) {
	r, _, err := tpch.Run(o.boot(c), db, q, f, local)
	if err == nil {
		err = r.Err
	}
	if err != nil {
		return 0, err
	}
	return r.Elapsed.Seconds() * 1e3, nil
}

// fig14a reproduces Figure 14(a): TPC-H Q4 response time on 8 nodes when
// upgrading from FDR to EDR, for MPI, MESQ/SR and the co-partitioned
// "local data" plan.
func fig14a() (x exhibit) {
	t := &Table{
		ID:    "Figure 14(a)",
		Title: "TPC-H Q4 response time, 8 nodes, network upgrade",
		Unit:  "ms",
		Cols:  []string{"FDR", "EDR"},
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
	rows := make([][]float64, len(plans))
	for i, pl := range plans {
		rows[i] = t.series(pl.name)
	}
	for pi, prof := range []fabric.Profile{fabric.FDR(), fabric.EDR()} {
		// One cell per (profile, plan); each generates its own database.
		for i, pl := range plans {
			c := cell{key: key("fig14a", prof.Name, pl.name), prof: prof, nodes: 8,
				cfg: mesq(prof.Threads), out: []*float64{&rows[i][pi]},
				body: func(o Options, c *cell) ([]float64, error) {
					db := tpch.Generate(sfPerNode*8, 8, pl.part, o.Seed)
					ms, err := o.runTPCH(c, c.provider(), db, 4, pl.local)
					return []float64{ms}, err
				}}
			if pl.name == "MPI" {
				c.bench.Factory = cluster.MPIProvider()
			}
			x.cells = append(x.cells, c)
		}
	}
	t.Notes = append(t.Notes,
		"paper: MESQ/SR matches the no-shuffle local plan (full overlap) and its gain from the",
		"upgrade keeps pace with local processing (~50%), while MPI improves only ~30%")
	x.tables = []*Table{t}
	return x
}

// fig14bcd reproduces Figures 14(b), (c) and (d): response time of Q4, Q3
// and Q10 as the database grows in proportion to the cluster (scale factor
// per node held constant), EDR, for MPI and MESQ/SR (plus the local plan
// for Q4).
func fig14bcd() (x exhibit) {
	prof := fabric.EDR()
	nodes := []int{2, 4, 8, 16}
	defs := []struct {
		id, name string
		q        int
		local    bool // also plot the co-partitioned plan
	}{
		{"Figure 14(b)", "TPC-H Q4", 4, true},
		{"Figure 14(c)", "TPC-H Q3", 3, false},
		{"Figure 14(d)", "TPC-H Q10", 10, false},
	}
	for _, q := range defs {
		t := &Table{
			ID:    q.id,
			Title: q.name + " response time vs cluster size (database grows with cluster), EDR",
			Unit:  "ms",
		}
		for _, n := range nodes {
			t.Cols = append(t.Cols, fmt.Sprintf("%dn", n))
		}
		mpiRow, rdmaRow := t.series("MPI"), t.series("MESQ/SR")
		var localRow []float64
		if q.local {
			localRow = t.series("local data")
			t.Notes = append(t.Notes,
				"the optimal line rises with cluster size because of the broadcast pattern")
		}
		t.Notes = append(t.Notes,
			"paper: MESQ/SR scales better than MPI — ~70% faster for Q4, ~55% for Q3, ~2x for Q10 at 16 nodes")
		for i, n := range nodes {
			// One database per cell, shared by the MPI and MESQ/SR runs; the
			// local plan reads a co-partitioned one.
			c := cell{key: key("fig14bcd", "Q"+strconv.Itoa(q.q), t.Cols[i]), prof: prof, nodes: n,
				cfg: mesq(prof.Threads), out: []*float64{&mpiRow[i], &rdmaRow[i]},
				body: func(o Options, c *cell) ([]float64, error) {
					sf := sfPerNode * float64(n)
					db := tpch.Generate(sf, n, tpch.Random, o.Seed)
					m, err := o.runTPCH(c, cluster.MPIProvider(), db, q.q, false)
					if err != nil {
						return nil, fmt.Errorf("MPI: %w", err)
					}
					r, err := o.runTPCH(c, c.provider(), db, q.q, false)
					if err != nil || !q.local {
						return []float64{m, r}, err
					}
					l, err := o.runTPCH(c, c.provider(), tpch.Generate(sf, n, tpch.CoPartitioned, o.Seed), q.q, true)
					return []float64{m, r, l}, err
				}}
			if q.local {
				c.out = append(c.out, &localRow[i])
			}
			x.cells = append(x.cells, c)
		}
		x.tables = append(x.tables, t)
	}
	return x
}

// table1 reproduces Table 1: the design-space summary, with the Queue Pair
// counts verified against the built communication layers (n = 16 nodes,
// t = 14 threads).
func table1() (x exhibit) {
	const n, threads = 16, 14
	t := &Table{
		ID:    "Table 1",
		Title: fmt.Sprintf("design alternatives for n=%d nodes, t=%d threads", n, threads),
		Cols:  []string{"QPs/node"},
	}
	want := map[string]int{
		"MEMQ/SR": n * threads, "MEMQ/RD": n * threads,
		"SEMQ/SR": n, "SEMQ/RD": n,
		"MESQ/SR": threads, "SESQ/SR": 1,
	}
	for _, a := range shuffle.Algorithms {
		x.cells = append(x.cells, cell{key: key("table1", a.Name), prof: fabric.EDR(), nodes: n, threads: threads,
			cfg: a.Config(threads), out: slots(t.series(a.Name)),
			body: func(o Options, c *cell) ([]float64, error) {
				comm, err := o.buildOnly(c)
				if err != nil {
					return nil, err
				}
				if comm.QPsPerOperator != want[a.Name] {
					return nil, fmt.Errorf("built %d QPs per operator, Table 1 says %d", comm.QPsPerOperator, want[a.Name])
				}
				return []float64{float64(comm.QPsPerOperator)}, nil
			}})
	}
	t.Notes = append(t.Notes,
		"contention: none (ME), moderate (SEMQ), excessive (SESQ); messaging: RC round-trip w/ hardware",
		"error control up to 1 GiB, UD half-trip w/ software error control up to 4 KiB (paper Table 1)")
	x.tables = []*Table{t}
	return x
}

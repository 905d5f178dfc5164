// Command tpchq runs TPC-H Q3, Q4, or Q10 on a simulated cluster with a
// chosen shuffle transport, printing the response time, per-edge shuffle
// statistics, and the result rows. Queries execute through the DAG
// planner (internal/dag).
//
// Usage:
//
//	tpchq -q 4 -nodes 8 -sf 0.1 -transport mesq
//	tpchq -q 4 -nodes 8 -sf 0.1 -local        # co-partitioned baseline
//	tpchq -q 10 -nodes 16 -sf 0.2 -transport mpi -profile fdr
package main

import (
	"flag"
	"fmt"
	"os"

	"rshuffle/internal/cluster"
	"rshuffle/internal/engine"
	"rshuffle/internal/fabric"
	"rshuffle/internal/tpch"
)

func main() {
	var (
		q         = flag.Int("q", 4, "TPC-H query: 3, 4 or 10")
		nodes     = flag.Int("nodes", 8, "cluster size")
		sf        = flag.Float64("sf", 0.05, "TPC-H scale factor")
		transport = flag.String("transport", "mesq", "mesq, memq, semq, sesq, memq-rd, semq-rd, memq-wr, semq-wr, mpi, ipoib")
		profile   = flag.String("profile", "edr", "cluster profile: fdr or edr")
		local     = flag.Bool("local", false, "co-partitioned 'local data' plan (Q4 only)")
		seed      = flag.Int64("seed", 42, "simulation seed")
	)
	flag.Parse()

	var prof fabric.Profile
	switch *profile {
	case "fdr":
		prof = fabric.FDR()
	case "edr":
		prof = fabric.EDR()
	default:
		fatal("unknown profile %q", *profile)
	}
	prof.UDReorderProb = 0

	factory, err := tpch.TransportFactory(*transport, prof.Threads)
	if err != nil {
		fatal("%v", err)
	}

	layout := tpch.Random
	if *local {
		if *q != 4 {
			fatal("-local is only meaningful for Q4")
		}
		layout = tpch.CoPartitioned
	}
	fmt.Printf("generating TPC-H SF %.3g across %d nodes...\n", *sf, *nodes)
	db := tpch.Generate(*sf, *nodes, layout, *seed)
	fmt.Printf("  %d customers, %d orders, %d lineitems (%.1f MiB)\n",
		db.NCustomer, db.NOrders, db.NLineitem, float64(db.Bytes())/(1<<20))

	c := cluster.New(prof, *nodes, 0, *seed)
	res, dr, err := tpch.Run(c, db, *q, factory, *local)
	if err != nil {
		fatal("%v", err)
	}
	if res.Err != nil {
		fatal("query failed: %v", res.Err)
	}
	fmt.Printf("Q%d on %d %s nodes over %s: %v (%d result rows)\n",
		*q, *nodes, prof.Name, *transport, res.Elapsed, res.Rows)
	fmt.Println("shuffle edges:")
	for _, e := range dr.Edges {
		fmt.Printf("  %-20s %-10s %9d rows %12d bytes %9d wqes\n",
			e.Edge, e.Type, e.Rows, e.Bytes, e.WRs)
	}
	printRows(res.Result)
}

func printRows(t *engine.Table) {
	if t == nil {
		return
	}
	for i := 0; i < t.N && i < 25; i++ {
		b := engine.Batch{Sch: t.Sch, Data: t.Row(i), N: 1}
		fmt.Printf("  ")
		for col, typ := range t.Sch.Cols {
			switch typ {
			case engine.TInt64:
				fmt.Printf("%d\t", b.Int64(0, col))
			case engine.TFloat64:
				fmt.Printf("%.2f\t", b.Float64(0, col))
			default:
				fmt.Printf("%s\t", b.Str(0, col))
			}
		}
		fmt.Println()
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

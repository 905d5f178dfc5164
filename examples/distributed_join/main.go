// Distributed hash join: the classic use of the shuffle operator. Two
// relations R(k, payload) and S(k, payload) are scattered across a 4-node
// cluster; both sides repartition on the join key so matching rows meet on
// the same node, where a hash join runs. The example builds the plan
// directly from the engine operators and the RDMA communication layer —
// the same way the TPC-H plans in internal/tpch are assembled.
package main

import (
	"fmt"
	"log"

	"rshuffle"
	"rshuffle/internal/engine"
	"rshuffle/internal/shuffle"
)

const (
	nodes   = 4
	rRows   = 120_000 // per node
	sRows   = 240_000 // per node
	keyMod  = 50_000  // join keys repeat, so the join fans out
	threads = 8
)

func makeTable(seed int64, rows, mod int) *engine.Table {
	t := engine.NewTable(engine.NewSchema(engine.TInt64, engine.TInt64))
	w := engine.NewWriter(t)
	for i := 0; i < rows; i++ {
		w.SetInt64(0, int64((i*2654435761+int(seed)*97)%mod))
		w.SetInt64(1, int64(i))
		w.Done()
	}
	return t
}

func main() {
	c := rshuffle.NewCluster(rshuffle.EDR(), nodes, threads, 1)
	cfg := rshuffle.Config{Impl: rshuffle.SQSR, Endpoints: threads}

	r := make([]*engine.Table, nodes)
	s := make([]*engine.Table, nodes)
	for a := 0; a < nodes; a++ {
		r[a] = makeTable(int64(a), rRows, keyMod)
		s[a] = makeTable(int64(a+100), sRows, keyMod)
	}

	// A hand-wired query is three steps of one Query; Cluster.Run supplies
	// the lifecycle around them (driver Proc, join, engine, teardown).
	var joined int64
	var commR, commS *rshuffle.Comm
	sinks := make([]*engine.Sink, nodes)
	q := &rshuffle.Query{Name: "query"}
	q.Setup = func(p *rshuffle.Proc) {
		// One communication layer per shuffle operator pair, as in a real
		// plan with two exchanges.
		commR = rshuffle.BuildComm(p, c, cfg)
		commS = rshuffle.BuildComm(p, c, cfg)
	}
	q.Stream = func(*rshuffle.Proc) {
		// Sending fragments: repartition R and S on the join key.
		for a := 0; a < nodes; a++ {
			for _, side := range []struct {
				comm *rshuffle.Comm
				tbl  *engine.Table
				name string
			}{{commR, r[a], "R"}, {commS, s[a], "S"}} {
				q.Go(a, "send-"+side.name, &engine.Sink{In: &shuffle.Shuffle{
					In:   &engine.Scan{T: side.tbl},
					Comm: side.comm, Node: a,
					G:   rshuffle.Repartition(nodes),
					Key: rshuffle.KeyInt64Col(0),
				}})
			}
		}
		// Receiving fragments: build on R, probe with S, count matches.
		for a := 0; a < nodes; a++ {
			sinks[a] = &engine.Sink{In: &engine.HashJoin{
				Build:    &shuffle.Receive{Comm: commR, Node: a, Sch: r[a].Sch},
				Probe:    &shuffle.Receive{Comm: commS, Node: a, Sch: s[a].Sch},
				BuildKey: 0, ProbeKey: 0,
			}}
			q.Go(a, "join", sinks[a])
		}
	}
	q.Collect = func() {
		for a := 0; a < nodes; a++ {
			fmt.Printf("  node %d joined %d rows\n", a, sinks[a].Rows)
			joined += sinks[a].Rows
		}
		fmt.Printf("distributed join produced %d rows in %v of virtual time\n",
			joined, q.End)
	}
	if err := c.Run(q); err != nil {
		log.Fatal(err)
	}

	// Sanity check against a sequential join.
	counts := map[int64]int64{}
	for a := 0; a < nodes; a++ {
		for i := 0; i < r[a].N; i++ {
			counts[engine.RowInt64(r[a].Sch, r[a].Row(i), 0)]++
		}
	}
	var want int64
	for a := 0; a < nodes; a++ {
		for i := 0; i < s[a].N; i++ {
			want += counts[engine.RowInt64(s[a].Sch, s[a].Row(i), 0)]
		}
	}
	if joined != want {
		log.Fatalf("join produced %d rows, want %d", joined, want)
	}
	fmt.Println("verified against sequential join: OK")
}

// Broadcast join: when one relation is small (a dimension table), it is
// cheaper to broadcast it to every node than to repartition both sides —
// the pattern behind the paper's TPC-H Q4 plan and Figure 10(b)/(d). The
// example also demonstrates multicast transmission groups: the dimension
// table is sent only to the nodes that hold fact data.
package main

import (
	"fmt"
	"log"

	"rshuffle"
	"rshuffle/internal/engine"
	"rshuffle/internal/shuffle"
)

const (
	nodes    = 4
	dimRows  = 5_000   // small dimension table, lives on node 0
	factRows = 400_000 // per node
	threads  = 8
)

func main() {
	c := rshuffle.NewCluster(rshuffle.EDR(), nodes, threads, 1)
	cfg := rshuffle.Config{Impl: rshuffle.SQSR, Endpoints: threads}

	sch := engine.NewSchema(engine.TInt64, engine.TInt64)
	dim := engine.NewTable(sch)
	w := engine.NewWriter(dim)
	for i := 0; i < dimRows; i++ {
		w.SetInt64(0, int64(i))
		w.SetInt64(1, int64(i*10))
		w.Done()
	}
	facts := make([]*engine.Table, nodes)
	for a := 0; a < nodes; a++ {
		facts[a] = engine.NewTable(sch)
		fw := engine.NewWriter(facts[a])
		for i := 0; i < factRows; i++ {
			fw.SetInt64(0, int64((i*7+a)%dimRows))
			fw.SetInt64(1, int64(i))
			fw.Done()
		}
	}

	// A hand-wired query is three steps of one Query; Cluster.Run supplies
	// the lifecycle around them (driver Proc, join, engine, teardown).
	var total int64
	var comm *rshuffle.Comm
	sinks := make([]*engine.Sink, nodes)
	q := &rshuffle.Query{Name: "query"}
	q.Setup = func(p *rshuffle.Proc) { comm = rshuffle.BuildComm(p, c, cfg) }
	q.Stream = func(*rshuffle.Proc) {
		// Node 0 broadcasts the dimension table to every node (including
		// itself, via NIC loopback); other nodes send nothing but must
		// still signal end-of-stream.
		for a := 0; a < nodes; a++ {
			in := engine.Operator(&engine.Scan{T: dim})
			if a != 0 {
				in = &engine.Scan{T: engine.NewTable(sch)} // empty
			}
			q.Go(a, "send", &engine.Sink{In: &shuffle.Shuffle{
				In: in, Comm: comm, Node: a,
				G:   rshuffle.Broadcast(nodes),
				Key: rshuffle.KeyInt64Col(0),
			}})
		}
		// Each node joins the broadcast dimension against its local facts.
		for a := 0; a < nodes; a++ {
			sinks[a] = &engine.Sink{In: &engine.HashJoin{
				Build:    &shuffle.Receive{Comm: comm, Node: a, Sch: sch},
				Probe:    &engine.Scan{T: facts[a]},
				BuildKey: 0, ProbeKey: 0,
			}}
			q.Go(a, "join", sinks[a])
		}
	}
	q.Collect = func() {
		for a := 0; a < nodes; a++ {
			total += sinks[a].Rows
		}
		fmt.Printf("broadcast join matched %d fact rows in %v of virtual time\n",
			total, q.End)
	}
	if err := c.Run(q); err != nil {
		log.Fatal(err)
	}
	if want := int64(nodes * factRows); total != want {
		log.Fatalf("joined %d rows, want %d (every fact matches one dimension row)", total, want)
	}
	fmt.Println("verified: every fact row matched exactly once")
}

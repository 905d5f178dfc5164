package cluster_test

import (
	"testing"

	"rshuffle/internal/bufpool"
	"rshuffle/internal/cluster"
	"rshuffle/internal/dag"
	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/tpch"
)

// Macro benchmarks: whole shuffle queries on a small FDR cluster, one
// simulation per iteration. These measure the simulator's wall-clock cost
// end to end — kernel scheduling, fabric modelling, and the shuffle
// operators together — complementing the kernel micro-benchmarks in
// internal/sim. The virtual-time results are deterministic; only wall time
// and allocations are under test here. The package is cluster_test so the
// DAG benchmark can import internal/dag without a cycle.

// reportPool starts counting the registered-buffer pool's fresh chunk
// allocations; the returned function reports them per query, with the bytes
// the pool has parked at the end. A warmed-up series should show zero
// misses: every ring chunk a query touches is one an earlier query parked.
func reportPool(b *testing.B) func() {
	start := cluster.PoolMisses()
	return func() {
		var retained int64
		for _, c := range bufpool.Stats() {
			retained += c.RetainedBytes
		}
		b.ReportMetric(float64(cluster.PoolMisses()-start)/float64(b.N), "pool-misses/op")
		b.ReportMetric(float64(retained)/(1<<20), "pool-retained-MiB")
	}
}

// simTotals accumulates a benchmark's simulator counters over its queries.
type simTotals struct{ events, switches, dispatches uint64 }

// add takes a finished query's counters.
func (s *simTotals) add(c *cluster.Cluster) {
	s.events += c.Events()
	s.switches += c.Group.Switches()
	s.dispatches += c.Group.Dispatches()
}

// report reports the totals: events per wall second, wall time per event,
// the Proc wake-ups a query delivers and the goroutine switches they cost —
// the price the event loop pays whenever a wake-up is for another Proc than
// the one that just blocked. dispatches − switches are the self-wakes, free
// today and a switch each under a kernel with a central loop.
func (s *simTotals) report(b *testing.B) {
	b.ReportMetric(float64(s.events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.events), "ns/event")
	b.ReportMetric(float64(s.switches)/float64(b.N), "switches/op")
	b.ReportMetric(float64(s.dispatches)/float64(b.N), "dispatches/op")
}

func benchShuffle(b *testing.B, cfg shuffle.Config) {
	b.ReportAllocs()
	defer reportPool(b)()
	var tot simTotals
	for i := 0; i < b.N; i++ {
		c := cluster.New(fabric.FDR(), 4, 2, 42)
		res, err := c.RunBench(cluster.BenchOpts{
			Factory: cluster.RDMAProvider(cfg), RowsPerNode: 8192,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		tot.add(c)
	}
	tot.report(b)
}

func BenchmarkShuffleMEMQSR(b *testing.B) {
	benchShuffle(b, shuffle.Config{Impl: shuffle.MQSR, Endpoints: 2})
}

func BenchmarkShuffleMEMQRD(b *testing.B) {
	benchShuffle(b, shuffle.Config{Impl: shuffle.MQRD, Endpoints: 2})
}

func BenchmarkShuffleMESQSR(b *testing.B) {
	benchShuffle(b, shuffle.Config{Impl: shuffle.SQSR, Endpoints: 2})
}

// benchShuffleLPs runs a 64-node whole-query benchmark at a fixed
// logical-partition count. The four LP variants together are the
// parallel-speedup oracle: virtual-time results are byte-identical across
// them (the equivalence matrix pins that), so any ns/op difference is pure
// engine wall-clock — LP1 has no windows, LP2..8 pay for them and scale with
// cores. Real speedup needs real cores: on a single-core host the wide path
// degrades to serial window execution.
func benchShuffleLPs(b *testing.B, lps int) {
	b.ReportAllocs()
	defer reportPool(b)()
	var tot simTotals
	for i := 0; i < b.N; i++ {
		c := cluster.NewWithOptions(fabric.FDR(), 64, 2, 42,
			cluster.SimOptions{ParallelLPs: lps})
		res, err := c.RunBench(cluster.BenchOpts{
			Factory:     cluster.RDMAProvider(shuffle.Config{Impl: shuffle.MQSR, Endpoints: 2}),
			RowsPerNode: 2048,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		tot.add(c)
	}
	tot.report(b)
}

func BenchmarkShuffleWide64LP1(b *testing.B) { benchShuffleLPs(b, 1) }
func BenchmarkShuffleWide64LP2(b *testing.B) { benchShuffleLPs(b, 2) }
func BenchmarkShuffleWide64LP4(b *testing.B) { benchShuffleLPs(b, 4) }
func BenchmarkShuffleWide64LP8(b *testing.B) { benchShuffleLPs(b, 8) }

// BenchmarkDAGMultiStage runs the three-shuffle multi-stage demo plan
// (partial agg → hash re-shuffle → join → broadcast) end to end, covering
// the DAG planner's wiring and per-edge bookkeeping on top of the same
// simulator stack.
func BenchmarkDAGMultiStage(b *testing.B) {
	prof := fabric.FDR()
	prof.UDReorderProb = 0
	fact, dim := dag.DemoTables(4, 2000, 250, 7)
	factory := cluster.RDMAProvider(shuffle.Config{Impl: shuffle.MQSR, Endpoints: 2})
	b.ReportAllocs()
	defer reportPool(b)()
	var tot simTotals
	for i := 0; i < b.N; i++ {
		c := cluster.New(prof, 4, 2, 42)
		res := dag.MultiStageDemo(fact, dim).Run(c, factory)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		tot.add(c)
	}
	tot.report(b)
}

// BenchmarkTPCHPlansLP1 runs TPC-H Q3, Q4 and Q10 through their DAG plans
// over MESQ/SR on 8 EDR nodes x 14 threads at SF 0.03 (the repository
// benchmark's tpch8_ud). 13 short shuffle edges with setup between them make
// it the workload where the engine's fixed cost per setup instant weighs
// most, and where self-wakes are the largest share of dispatches.
func BenchmarkTPCHPlansLP1(b *testing.B) {
	const nodes, threads = 8, 14
	db := tpch.Generate(0.03, nodes, tpch.Random, 42)
	mesq := cluster.RDMAProvider(shuffle.Config{Impl: shuffle.SQSR, Endpoints: threads})
	b.ReportAllocs()
	defer reportPool(b)()
	b.ResetTimer()
	var tot simTotals
	for i := 0; i < b.N; i++ {
		for _, q := range []int{3, 4, 10} {
			c := cluster.New(fabric.EDR(), nodes, threads, 42)
			qr, _, err := tpch.Run(c, db, q, mesq, false)
			if err != nil {
				b.Fatal(err)
			}
			if qr.Err != nil {
				b.Fatal(qr.Err)
			}
			tot.add(c)
		}
	}
	tot.report(b)
}

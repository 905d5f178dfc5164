package cluster_test

import (
	"runtime"
	"testing"

	"rshuffle/internal/bufpool"
	"rshuffle/internal/cluster"
	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/tpch"
)

// TestSteadyStateAllocation: once a query shape has run twice, the byte
// stores a query builds afresh — ring chunks, datagram snapshots, operator
// row stores, RunBench's tables — all come out of the buffer pool and go
// back into it, so what a further query of that shape allocates is
// bookkeeping: endpoints, queue pairs, messages, hash tables. The ceilings
// are 1.3x what the third to fifth queries allocated when the last tenant
// moved in (1.28, 0.49 and 2.36 MB); an operator that stops returning its
// batches in Close, or a store that is dropped instead of parked, lands
// above them — with only ring chunks pooled the same queries allocated
// 9.92, 4.95 and 10.00 MB. The test lives here rather than in
// recycle_test.go because tpch imports cluster.
func TestSteadyStateAllocation(t *testing.T) {
	const nodes, threads = 4, 4
	bench := func(cfg shuffle.Config) func() error {
		return func() error {
			c := cluster.New(fabric.FDR(), nodes, threads, 42)
			res, err := c.RunBench(cluster.BenchOpts{Factory: cluster.RDMAProvider(cfg), RowsPerNode: 1 << 16})
			if err == nil {
				err = res.Err
			}
			return err
		}
	}
	db := tpch.Generate(0.01, nodes, tpch.Random, 42)
	mesq := cluster.RDMAProvider(shuffle.Config{Impl: shuffle.SQSR, Endpoints: threads})
	for _, q := range []struct {
		name      string
		run       func() error
		ceilingMB float64
	}{
		{"MESQ/SR", bench(shuffle.Config{Impl: shuffle.SQSR, Endpoints: threads}), 1.7},
		{"MEMQ/SR", bench(shuffle.Config{Impl: shuffle.MQSR, Endpoints: threads}), 0.65},
		{"TPC-H Q3", func() error {
			qr, _, err := tpch.Run(cluster.New(fabric.EDR(), nodes, threads, 42), db, 3, mesq, false)
			if err == nil {
				err = qr.Err
			}
			return err
		}, 3.1},
	} {
		var worst float64
		for i := 1; i <= 5; i++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if err := q.run(); err != nil {
				t.Fatalf("%s, query %d: %v", q.name, i, err)
			}
			runtime.ReadMemStats(&m1)
			if mb := float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6; i >= 3 && mb > worst {
				worst = mb
			}
			var parked int64
			for _, c := range bufpool.Stats() {
				parked += c.RetainedBytes
			}
			if parked > bufpool.Budget {
				t.Fatalf("%s, query %d: %d bytes parked in the pool, over its budget of %d", q.name, i, parked, bufpool.Budget)
			}
		}
		t.Logf("%s: %.2f MB a query at most over queries 3-5", q.name, worst)
		if worst > q.ceilingMB {
			t.Errorf("%s: a query allocated %.2f MB in steady state, want under %.2f MB", q.name, worst, q.ceilingMB)
		}
	}
}

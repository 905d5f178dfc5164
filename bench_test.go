// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark runs the corresponding experiment driver once per
// iteration (the drivers themselves sweep the paper's parameter grids) and
// reports the headline values as custom metrics, so `go test -bench=.`
// reproduces the full evaluation. Wall time measures the simulator, not the
// modelled cluster — the reported custom metrics are the virtual-time
// results that correspond to the paper's axes.
package rshuffle_test

import (
	"math"
	"testing"

	"rshuffle/internal/experiments"
	"rshuffle/internal/fabric"
	"rshuffle/internal/qperf"
)

var benchOpts = experiments.Options{Seed: 42}

func metric(b *testing.B, t *experiments.Table, row string, col int, name string) {
	b.Helper()
	for _, r := range t.Rows {
		if r.Name == row && col < len(r.Vals) && !math.IsNaN(r.Vals[col]) {
			b.ReportMetric(r.Vals[col], name)
			return
		}
	}
	b.Fatalf("row %q col %d missing in %s", row, col, t.ID)
}

func runExp(b *testing.B, name string) []*experiments.Table {
	b.Helper()
	e := experiments.Find(name)
	if e == nil {
		b.Fatalf("unknown experiment %q", name)
	}
	var out []*experiments.Table
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts, err := experiments.Run(benchOpts, e)
		if err != nil {
			b.Fatal(err)
		}
		out = ts[0]
	}
	return out
}

// BenchmarkTable1DesignSpace regenerates Table 1 and verifies the Queue
// Pair census of all six designs.
func BenchmarkTable1DesignSpace(b *testing.B) {
	ts := runExp(b, "table1")
	metric(b, ts[0], "MEMQ/SR", 0, "MEMQ/SR-QPs")
	metric(b, ts[0], "MESQ/SR", 0, "MESQ/SR-QPs")
}

// BenchmarkFig08CreditFrequency regenerates Figure 8 (both clusters).
func BenchmarkFig08CreditFrequency(b *testing.B) {
	ts := runExp(b, "fig08")
	// f=2 is the paper's chosen operating point.
	metric(b, ts[0], "MESQ/SR", 1, "FDR-MESQ/SR-GiBps")
	metric(b, ts[1], "MESQ/SR", 1, "EDR-MESQ/SR-GiBps")
	metric(b, ts[1], "MPI", 1, "EDR-MPI-GiBps")
}

// BenchmarkFig09MessageSize regenerates Figure 9(a) and (b).
func BenchmarkFig09MessageSize(b *testing.B) {
	ts := runExp(b, "fig09")
	metric(b, ts[0], "SEMQ/SR", 0, "SEMQ/SR-4KiB-GiBps")
	metric(b, ts[0], "SEMQ/SR", 2, "SEMQ/SR-64KiB-GiBps")
	metric(b, ts[1], "MESQ/SR", 0, "UD-memory-MiB")
	metric(b, ts[1], "MEMQ/SR", 4, "RC-1MiB-memory-MiB")
}

// BenchmarkFig10ScaleOut regenerates Figure 10 (all four panels).
func BenchmarkFig10ScaleOut(b *testing.B) {
	ts := runExp(b, "fig10")
	// Panel (a): FDR repartition; panel (c): EDR repartition; 16 nodes.
	metric(b, ts[0], "MESQ/SR", 3, "FDR-16n-MESQ/SR-GiBps")
	metric(b, ts[0], "MEMQ/SR", 3, "FDR-16n-MEMQ/SR-GiBps")
	metric(b, ts[2], "MESQ/SR", 3, "EDR-16n-MESQ/SR-GiBps")
	metric(b, ts[2], "MPI", 3, "EDR-16n-MPI-GiBps")
	metric(b, ts[2], "IPoIB", 3, "EDR-16n-IPoIB-GiBps")
}

// BenchmarkFig11QueuePairs regenerates Figure 11.
func BenchmarkFig11QueuePairs(b *testing.B) {
	ts := runExp(b, "fig11")
	metric(b, ts[0], "SQ/SR", 3, "MESQ/SR-GiBps")
	metric(b, ts[0], "MQ/SR", 3, "MEMQ/SR-GiBps")
}

// BenchmarkFig12SetupCost regenerates Figure 12.
func BenchmarkFig12SetupCost(b *testing.B) {
	ts := runExp(b, "fig12")
	last := len(ts[0].Cols) - 1
	metric(b, ts[0], "MESQ/SR", last, "MESQ/SR-16n-ms")
	metric(b, ts[0], "MEMQ/SR", last, "MEMQ/SR-16n-ms")
}

// BenchmarkFig13ComputeIntensive regenerates Figure 13.
func BenchmarkFig13ComputeIntensive(b *testing.B) {
	ts := runExp(b, "fig13")
	last := len(ts[0].Cols) - 1
	metric(b, ts[0], "MESQ/SR", last, "MESQ/SR-overlap-pct")
	metric(b, ts[0], "IPoIB", last, "IPoIB-overlap-pct")
}

// BenchmarkFig14aNetworkUpgrade regenerates Figure 14(a).
func BenchmarkFig14aNetworkUpgrade(b *testing.B) {
	ts := runExp(b, "fig14a")
	metric(b, ts[0], "MESQ/SR", 1, "EDR-MESQ/SR-ms")
	metric(b, ts[0], "MPI", 1, "EDR-MPI-ms")
	metric(b, ts[0], "local data", 1, "EDR-local-ms")
}

// BenchmarkFig14ScaleOut regenerates Figures 14(b), (c) and (d).
func BenchmarkFig14ScaleOut(b *testing.B) {
	ts := runExp(b, "fig14bcd")
	metric(b, ts[0], "MESQ/SR", 3, "Q4-16n-MESQ/SR-ms")
	metric(b, ts[0], "MPI", 3, "Q4-16n-MPI-ms")
	metric(b, ts[1], "MESQ/SR", 3, "Q3-16n-MESQ/SR-ms")
	metric(b, ts[2], "MESQ/SR", 3, "Q10-16n-MESQ/SR-ms")
	metric(b, ts[2], "MPI", 3, "Q10-16n-MPI-ms")
}

// BenchmarkQperf measures the line-rate reference used throughout §5.
func BenchmarkQperf(b *testing.B) {
	var fdr, edr float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fdr = qperf.Run(fabric.FDR(), 64<<10, 1<<30).GiBps()
		edr = qperf.Run(fabric.EDR(), 64<<10, 1<<30).GiBps()
	}
	b.ReportMetric(fdr, "FDR-GiBps")
	b.ReportMetric(edr, "EDR-GiBps")
}

// BenchmarkExtWriteEndpoint regenerates the RDMA Write future-work study.
func BenchmarkExtWriteEndpoint(b *testing.B) {
	ts := runExp(b, "ext-write")
	metric(b, ts[1], "MEMQ/WR", 1, "bcast-8n-MEMQ/WR-GiBps")
	metric(b, ts[1], "MEMQ/RD", 1, "bcast-8n-MEMQ/RD-GiBps")
}

// BenchmarkExtFabrics regenerates the RoCE/iWARP future-work study.
func BenchmarkExtFabrics(b *testing.B) {
	ts := runExp(b, "ext-fabrics")
	metric(b, ts[0], "SEMQ/SR", 0, "RoCE-SEMQ/SR-GiBps")
	metric(b, ts[0], "SEMQ/SR", 1, "iWARP-SEMQ/SR-GiBps")
}

// BenchmarkExtMulticast regenerates the native-multicast future-work study.
func BenchmarkExtMulticast(b *testing.B) {
	ts := runExp(b, "ext-mcast")
	last := len(ts[0].Cols) - 1
	metric(b, ts[0], "MESQ/SR+mcast", last, "mcast-16n-GiBps")
	metric(b, ts[0], "MESQ/SR+mcast txmsgs", last, "mcast-16n-txmsgs")
}

// BenchmarkExtZeroCopy regenerates the copy-vs-zero-copy ablation.
func BenchmarkExtZeroCopy(b *testing.B) {
	ts := runExp(b, "ext-zerocopy")
	metric(b, ts[0], "copy", 0, "copy-16B-GiBps")
	metric(b, ts[0], "zero-copy", 0, "zerocopy-16B-GiBps")
}

// BenchmarkExtQPCache regenerates the QP-cache ablation.
func BenchmarkExtQPCache(b *testing.B) {
	ts := runExp(b, "ext-qpcache")
	metric(b, ts[0], "MEMQ/SR", 0, "MEMQ/SR-16QPcache-GiBps")
	last := len(ts[0].Cols) - 1
	metric(b, ts[0], "MEMQ/SR", last, "MEMQ/SR-bigcache-GiBps")
}

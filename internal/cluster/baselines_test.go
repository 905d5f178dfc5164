package cluster

import (
	"testing"

	"rshuffle/internal/fabric"
	"rshuffle/internal/ipoib"
	"rshuffle/internal/qperf"
	"rshuffle/internal/shuffle"
)

func runBaseline(t testing.TB, prof fabric.Profile, f ProviderFactory, nodes, rows int, groups shuffle.Groups) *BenchResult {
	t.Helper()
	c := New(prof, nodes, 0, 7)
	res, err := c.RunBench(BenchOpts{Factory: f, RowsPerNode: rows, Groups: groups})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res
}

func TestMPIConservesRows(t *testing.T) {
	const nodes, rows = 4, 100_000
	res := runBaseline(t, quiet(fabric.EDR()), MPIProvider(), nodes, rows, nil)
	var total int64
	for _, r := range res.RowsPerNode {
		total += r
	}
	if total != int64(nodes*rows) {
		t.Fatalf("rows = %d, want %d", total, nodes*rows)
	}
}

func TestMPIBroadcast(t *testing.T) {
	const nodes, rows = 3, 40_000
	res := runBaseline(t, quiet(fabric.EDR()), MPIProvider(), nodes, rows, shuffle.Broadcast(nodes))
	for a, r := range res.RowsPerNode {
		if r != int64(nodes*rows) {
			t.Fatalf("node %d received %d rows, want %d", a, r, nodes*rows)
		}
	}
}

func TestIPoIBConservesRows(t *testing.T) {
	const nodes, rows = 4, 100_000
	res := runBaseline(t, quiet(fabric.EDR()), IPoIBProvider(ipoib.Config{}), nodes, rows, nil)
	var total int64
	for _, r := range res.RowsPerNode {
		total += r
	}
	if total != int64(nodes*rows) {
		t.Fatalf("rows = %d, want %d", total, nodes*rows)
	}
}

func TestIPoIBBroadcast(t *testing.T) {
	const nodes, rows = 3, 40_000
	res := runBaseline(t, quiet(fabric.EDR()), IPoIBProvider(ipoib.Config{}), nodes, rows, shuffle.Broadcast(nodes))
	for a, r := range res.RowsPerNode {
		if r != int64(nodes*rows) {
			t.Fatalf("node %d received %d rows, want %d", a, r, nodes*rows)
		}
	}
}

// The paper's headline ordering: RDMA > MPI > IPoIB for repartitioning.
func TestBaselineOrdering(t *testing.T) {
	const nodes, rows = 8, 1_000_000
	rdma := runBaseline(t, quiet(fabric.EDR()),
		RDMAProvider(shuffle.Config{Impl: shuffle.SQSR, Endpoints: 14}), nodes, rows, nil)
	mpiRes := runBaseline(t, quiet(fabric.EDR()), MPIProvider(), nodes, rows, nil)
	ipoibRes := runBaseline(t, quiet(fabric.EDR()), IPoIBProvider(ipoib.Config{}), nodes, rows, nil)
	r, m, i := rdma.GiBps(), mpiRes.GiBps(), ipoibRes.GiBps()
	t.Logf("EDR 8 nodes: MESQ/SR=%.2f MPI=%.2f IPoIB=%.2f GiB/s", r, m, i)
	if !(r > m && m > i) {
		t.Fatalf("ordering violated: RDMA=%.2f MPI=%.2f IPoIB=%.2f", r, m, i)
	}
	if r < 1.5*m {
		t.Fatalf("RDMA should be well ahead of MPI: %.2f vs %.2f", r, m)
	}
	if r < 2.2*i {
		t.Fatalf("RDMA should be ~3x IPoIB: %.2f vs %.2f", r, i)
	}
}

func TestQperf(t *testing.T) {
	edr := qperf.Run(fabric.EDR(), 64<<10, 1<<30)
	fdr := qperf.Run(fabric.FDR(), 64<<10, 1<<30)
	t.Logf("qperf: FDR=%.2f EDR=%.2f GiB/s", fdr.GiBps(), edr.GiBps())
	if g := edr.GiBps(); g < 10.5 || g > 12 {
		t.Fatalf("EDR qperf = %.2f GiB/s, want ~11.5", g)
	}
	if g := fdr.GiBps(); g < 5.2 || g > 6.3 {
		t.Fatalf("FDR qperf = %.2f GiB/s, want ~5.9", g)
	}
}

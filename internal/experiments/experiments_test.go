package experiments

import (
	"math"
	"strings"
	"testing"

	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
)

var fast = Options{Seed: 7}

// exhibitTables runs one experiment and returns its tables.
func exhibitTables(t *testing.T, name string, o Options) []*Table {
	t.Helper()
	tables, err := Run(o, Find(name))
	if err != nil {
		t.Fatal(err)
	}
	return tables[0]
}

func val(t *Table, rowName string, col int) float64 {
	for _, r := range t.Rows {
		if r.Name == rowName {
			return r.Vals[col]
		}
	}
	return math.NaN()
}

func TestTable1QPCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	tb := exhibitTables(t, "table1", fast)[0]
	if got := val(tb, "MEMQ/SR", 0); got != 224 {
		t.Fatalf("MEMQ/SR QPs = %v, want 224", got)
	}
	if got := val(tb, "MESQ/SR", 0); got != 14 {
		t.Fatalf("MESQ/SR QPs = %v, want 14", got)
	}
	if got := val(tb, "SESQ/SR", 0); got != 1 {
		t.Fatalf("SESQ/SR QPs = %v, want 1", got)
	}
}

func TestFig12Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	tb := exhibitTables(t, "fig12", fast)[0]
	last := len(tb.Cols) - 1
	// MQ grows with cluster size; SQ stays flat.
	if val(tb, "MEMQ/SR", last) < 3*val(tb, "MEMQ/SR", 0) {
		t.Fatalf("MEMQ/SR setup should grow ~linearly: %v -> %v",
			val(tb, "MEMQ/SR", 0), val(tb, "MEMQ/SR", last))
	}
	if val(tb, "MESQ/SR", last) != val(tb, "MESQ/SR", 0) {
		t.Fatal("MESQ/SR setup should be flat across cluster sizes")
	}
	// Paper: MESQ/SR stays under 40 ms; ME connects more endpoints than SE.
	if v := val(tb, "MESQ/SR", last); v >= 40 {
		t.Fatalf("MESQ/SR setup = %v ms, want < 40", v)
	}
	if val(tb, "MEMQ/SR", last) <= val(tb, "SEMQ/SR", last) {
		t.Fatal("ME should cost more setup than SE")
	}
	if val(tb, "MEMQ/SR", last) < 250 || val(tb, "MEMQ/SR", last) > 650 {
		t.Fatalf("MEMQ/SR at 16 nodes = %v ms, paper shows ~300", val(tb, "MEMQ/SR", last))
	}
}

func TestWorkloadSizing(t *testing.T) {
	edr := fabric.EDR()
	rows, passes := workload(shuffle.Config{Impl: shuffle.MQSR}, edr, 16)
	if rows > 4_000_000 {
		t.Fatalf("rows = %d exceeds residency cap", rows)
	}
	need := fills * edr.Threads * 16 * (64<<10 - shuffle.HeaderSize) / 16
	if rows*passes < need*9/10 {
		t.Fatalf("volume %d under steady-state need %d", rows*passes, need)
	}
	udRows, udPasses := workload(shuffle.Config{Impl: shuffle.SQSR}, edr, 16)
	if udRows*udPasses >= rows*passes {
		t.Fatal("UD workloads should be smaller than RC workloads")
	}
}

func TestTableFormat(t *testing.T) {
	tb := &Table{
		ID: "Figure X", Title: "demo", Unit: "GiB/s",
		Cols: []string{"a", "b"},
		Rows: []Row{{Name: "algo", Vals: []float64{1.5, math.NaN()}}},
	}
	s := tb.Format()
	if !strings.Contains(s, "Figure X") || !strings.Contains(s, "1.50") {
		t.Fatalf("format output:\n%s", s)
	}
	if !strings.Contains(s, "-") {
		t.Fatal("NaN cells should render as '-'")
	}
}

func TestFindRegistry(t *testing.T) {
	if Find("fig10") == nil || Find("table1") == nil {
		t.Fatal("registry lookup failed")
	}
	if Find("nope") != nil {
		t.Fatal("unknown name should return nil")
	}
	seen := map[string]bool{}
	for _, e := range All {
		if seen[e.Name] {
			t.Fatalf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
	}
}

// TestFig13Overlap checks the headline Fig. 13 behaviour at one compute
// intensity: MESQ/SR overlaps fully while MPI does not.
func TestFig13Overlap(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	tb := exhibitTables(t, "fig13", fast)[0]
	last := len(tb.Cols) - 1
	mesq := val(tb, "MESQ/SR", last)
	if mesq < 90 {
		t.Fatalf("MESQ/SR at max compute intensity = %.1f%%, want ~100%%", mesq)
	}
	// At 4us per 32 KiB batch the fragment demands ~8 GB/s: the RDMA
	// designs can feed it but IPoIB (~2.5 GB/s) is deeply network-bound.
	// (MESQ/SR vs MPI right at MPI's crossover is within harness noise; the
	// full sweep in EXPERIMENTS.md shows the crossover ordering.)
	mid := 2
	if val(tb, "IPoIB", mid) > val(tb, "MESQ/SR", mid)-15 {
		t.Fatalf("IPoIB should lag well behind at mid intensity: IPoIB=%.1f%% MESQ=%.1f%%",
			val(tb, "IPoIB", mid), val(tb, "MESQ/SR", mid))
	}
	// Everything is network-bound (well below 100%) at the leftmost point.
	if v := val(tb, "MESQ/SR", 0); v > 60 {
		t.Fatalf("leftmost point should be network-bound, got %.1f%%", v)
	}
}

// TestFig14aShape checks the network-upgrade behaviour on a small scale
// factor: MESQ/SR ~= local plan, MPI slower, and EDR faster than FDR.
func TestFig14aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	tb := exhibitTables(t, "fig14a", fast)[0]
	for c, name := range tb.Cols {
		mpi, rdma, local := val(tb, "MPI", c), val(tb, "MESQ/SR", c), val(tb, "local data", c)
		if !(local <= rdma && rdma < mpi) {
			t.Fatalf("%s: ordering violated: local=%.2f rdma=%.2f mpi=%.2f", name, local, rdma, mpi)
		}
	}
	if val(tb, "MESQ/SR", 1) >= val(tb, "MESQ/SR", 0) {
		t.Fatal("EDR should be faster than FDR for MESQ/SR")
	}
}

// TestFig14bcdShapes checks Figure 14's scale-out findings for the two
// queries whose top-N sits below the gather. Q10 (Fig. 14(d)): MESQ/SR is at
// least 1.8x ahead of MPI at 16 nodes (paper ~2x), and with the data per
// node held constant it stays flat, within 1.3x of its 2-node time. Q3
// (Fig. 14(c)): MESQ/SR is ahead of MPI at 16 nodes; the size of its lead is
// printed beside the paper's ~55 %, not asserted.
func TestFig14bcdShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	tbs := exhibitTables(t, "fig14bcd", fast)
	q3, q10 := tbs[1], tbs[2]
	last := len(q10.Cols) - 1 // 16 nodes
	mpi, rdma := val(q10, "MPI", last), val(q10, "MESQ/SR", last)
	if mpi/rdma < 1.8 {
		t.Errorf("Fig. 14(d) Q10 at %s: MPI %.2f ms / MESQ/SR %.2f ms = %.2fx, want >= 1.8x (paper ~2x)",
			q10.Cols[last], mpi, rdma, mpi/rdma)
	}
	if first := val(q10, "MESQ/SR", 0); rdma > 1.3*first {
		t.Errorf("Fig. 14(d) Q10: MESQ/SR %.2f ms at %s vs %.2f at %s, want within 1.3x (flat scale-out)",
			rdma, q10.Cols[last], first, q10.Cols[0])
	}
	mpi3, rdma3 := val(q3, "MPI", last), val(q3, "MESQ/SR", last)
	if rdma3 >= mpi3 {
		t.Errorf("Fig. 14(c) Q3 at %s: MESQ/SR %.2f ms not ahead of MPI %.2f ms", q3.Cols[last], rdma3, mpi3)
	}
	t.Logf("at %s, MPI / MESQ/SR: Fig. 14(c) Q3 %.2fx (paper ~55 %% faster, 1.55x); Fig. 14(d) Q10 %.2fx (paper ~2x)",
		q3.Cols[last], mpi3/rdma3, mpi/rdma)
}

// TestExtZeroCopyCrossover checks the Kesavan-style ablation: copying wins
// for small records, the gap closes as records grow.
func TestExtZeroCopyCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	tb := exhibitTables(t, "ext-zerocopy", fast)[0]
	if val(tb, "zero-copy", 0) > 0.5*val(tb, "copy", 0) {
		t.Fatalf("zero-copy should collapse for 16 B records: zc=%.2f copy=%.2f",
			val(tb, "zero-copy", 0), val(tb, "copy", 0))
	}
	last := len(tb.Cols) - 1
	if val(tb, "zero-copy", last) < 0.95*val(tb, "copy", last) {
		t.Fatalf("zero-copy should match copy for large records: zc=%.2f copy=%.2f",
			val(tb, "zero-copy", last), val(tb, "copy", last))
	}
}

// TestExtFabrics checks that iWARP rules out the UD designs and that
// Ethernet fabrics land well below EDR line rate.
func TestExtFabrics(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	tb := exhibitTables(t, "ext-fabrics", fast)[0]
	if v := val(tb, "MESQ/SR", 1); v == v { // NaN check: v==v is false for NaN
		t.Fatalf("MESQ/SR on iWARP should be absent, got %v", v)
	}
	if v := val(tb, "SEMQ/SR", 0); v < 3.0 || v > 4.6 {
		t.Fatalf("RoCE 40GbE should run near its ~4.1 GiB/s line rate, got %.2f", v)
	}
}

// TestExtMulticastSavesWQEs checks the future-work hypothesis: hardware
// multicast cuts transmitted messages roughly by the cluster size while
// throughput stays at least as good.
func TestExtMulticastSavesWQEs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	tb := exhibitTables(t, "ext-mcast", fast)[0]
	last := len(tb.Cols) - 1
	sw := val(tb, "MESQ/SR txmsgs", last)
	hw := val(tb, "MESQ/SR+mcast txmsgs", last)
	// Multicast collapses the n per-destination data datagrams of a broadcast
	// batch into one, but the per-receiver credit datagrams remain: with n=16
	// and one credit return per two batches the floor is
	// (1 + n/2) / (n + n/2) = 0.375 of the software count, and the totals /
	// Finish datagrams (sent per peer either way) push the observed ratio to
	// ~0.39. Assert hw <= 0.42*sw to leave headroom over that floor while
	// still requiring the ~n-fold collapse of the data leg.
	if hw*100 > sw*42 {
		t.Fatalf("multicast should slash tx messages: hw=%.0f sw=%.0f (ratio %.3f > 0.42)",
			hw, sw, hw/sw)
	}
	if val(tb, "MESQ/SR+mcast", last) < 0.9*val(tb, "MESQ/SR", last) {
		t.Fatalf("multicast throughput regressed: %.2f vs %.2f",
			val(tb, "MESQ/SR+mcast", last), val(tb, "MESQ/SR", last))
	}
}

func TestWorkloadForBroadcastScales(t *testing.T) {
	edr := fabric.EDR()
	cfg := shuffle.Config{Impl: shuffle.MQSR}
	rRows, rPasses := workloadFor(cfg, edr, 8, shuffle.Repartition(8))
	bRows, bPasses := workloadFor(cfg, edr, 8, shuffle.Broadcast(8))
	if bRows*bPasses >= rRows*rPasses {
		t.Fatalf("broadcast volume (%d) should shrink vs repartition (%d)",
			bRows*bPasses, rRows*rPasses)
	}
}

func TestTuneRecvWindowCapsMemory(t *testing.T) {
	edr := fabric.EDR()
	small := tuneRecvWindow(shuffle.Config{Impl: shuffle.MQSR, Endpoints: 14, BufSize: 64 << 10}, edr, 8)
	big := tuneRecvWindow(shuffle.Config{Impl: shuffle.MQSR, Endpoints: 14, BufSize: 1 << 20}, edr, 8)
	if small.RecvBuffersPerPeer != 16 {
		t.Fatalf("64KiB window = %d, want default 16", small.RecvBuffersPerPeer)
	}
	if big.RecvBuffersPerPeer >= 4 {
		t.Fatalf("1MiB window = %d, want tightly capped", big.RecvBuffersPerPeer)
	}
	ud := tuneRecvWindow(shuffle.Config{Impl: shuffle.SQSR, Endpoints: 14}, edr, 8)
	if ud.RecvBuffersPerPeer != 16 {
		t.Fatalf("UD window = %d, want untouched", ud.RecvBuffersPerPeer)
	}
}

package cluster

import (
	"errors"
	"testing"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
)

func quiet(p fabric.Profile) fabric.Profile {
	p.UDReorderProb = 0
	return p
}

func benchRun(t testing.TB, prof fabric.Profile, cfg shuffle.Config, nodes, rows int, groups shuffle.Groups) *BenchResult {
	t.Helper()
	c := New(prof, nodes, 0, 7)
	res, err := c.RunBench(BenchOpts{
		Factory:     RDMAProvider(cfg),
		RowsPerNode: rows,
		Groups:      groups,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res
}

func TestBenchConservesRows(t *testing.T) {
	const nodes, rows = 4, 50000
	cfg := shuffle.Config{Impl: shuffle.SQSR, Endpoints: 14}
	res := benchRun(t, quiet(fabric.EDR()), cfg, nodes, rows, nil)
	var total int64
	for _, r := range res.RowsPerNode {
		total += r
	}
	if total != int64(nodes*rows) {
		t.Fatalf("rows received = %d, want %d", total, nodes*rows)
	}
}

func TestBenchUniformPartitioning(t *testing.T) {
	const nodes, rows = 8, 40000
	cfg := shuffle.Config{Impl: shuffle.MQSR, Endpoints: 14}
	res := benchRun(t, quiet(fabric.EDR()), cfg, nodes, rows, nil)
	mean := float64(nodes*rows) / float64(nodes)
	for a, r := range res.RowsPerNode {
		dev := float64(r)/mean - 1
		if dev < -0.05 || dev > 0.05 {
			t.Fatalf("node %d received %d rows, >5%% from mean %.0f", a, r, mean)
		}
	}
}

// TestCalibrationMESQSREDR pins the headline calibration point: MESQ/SR on
// 8 EDR nodes should reach close to the paper's ~11 GiB/s per node.
func TestCalibrationMESQSREDR(t *testing.T) {
	cfg := shuffle.Config{Impl: shuffle.SQSR, Endpoints: 14}
	res := benchRun(t, quiet(fabric.EDR()), cfg, 8, 300_000, nil)
	if g := res.GiBps(); g < 9.0 || g > 12.5 {
		t.Fatalf("MESQ/SR EDR 8-node throughput = %.2f GiB/s, want ~10-12", g)
	}
}

// TestCalibrationMESQSRFDR pins the FDR point (~5.5 GiB/s in the paper).
func TestCalibrationMESQSRFDR(t *testing.T) {
	cfg := shuffle.Config{Impl: shuffle.SQSR, Endpoints: 10}
	res := benchRun(t, quiet(fabric.FDR()), cfg, 8, 300_000, nil)
	if g := res.GiBps(); g < 4.5 || g > 6.5 {
		t.Fatalf("MESQ/SR FDR 8-node throughput = %.2f GiB/s, want ~5-6", g)
	}
}

// Throughput must be volume-independent once buffers cycle in steady state
// (the scaled-down data volumes substitute for the paper's 160 GiB/node).
// UD streams reach steady state quickly because messages are one MTU.
func TestThroughputVolumeIndependent(t *testing.T) {
	cfg := shuffle.Config{Impl: shuffle.SQSR, Endpoints: 14}
	small := benchRun(t, quiet(fabric.EDR()), cfg, 4, 500_000, nil).GiBps()
	large := benchRun(t, quiet(fabric.EDR()), cfg, 4, 2_000_000, nil).GiBps()
	ratio := large / small
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("throughput varies with volume: %.2f vs %.2f GiB/s", small, large)
	}
}

func TestBroadcastBench(t *testing.T) {
	const nodes, rows = 4, 50_000
	cfg := shuffle.Config{Impl: shuffle.SQSR, Endpoints: 14}
	res := benchRun(t, quiet(fabric.EDR()), cfg, nodes, rows, shuffle.Broadcast(nodes))
	for a, r := range res.RowsPerNode {
		if r != int64(nodes*rows) {
			t.Fatalf("node %d received %d rows, want %d", a, r, nodes*rows)
		}
	}
}

func TestBurnSlowsElapsed(t *testing.T) {
	run := func(burn int) *BenchResult {
		c := New(quiet(fabric.EDR()), 4, 0, 7)
		res, err := c.RunBench(BenchOpts{
			Factory:           RDMAProvider(shuffle.Config{Impl: shuffle.SQSR, Endpoints: 14}),
			RowsPerNode:       100_000,
			BurnPerBatch:      time.Duration(burn),
			ReceiveBatchBytes: 32 << 10,
		})
		if err != nil || res.Err != nil {
			t.Fatal(err, res.Err)
		}
		return res
	}
	fast, slow := run(0), run(15_000)
	if slow.Elapsed <= fast.Elapsed {
		t.Fatalf("burn did not slow the query: %v vs %v", fast.Elapsed, slow.Elapsed)
	}
}

// TestRestartOnLoss exercises the paper's UD recovery policy end to end:
// injected packet loss fails the first attempt, the harness restarts the
// query, and the retry (without injected loss) succeeds.
func TestRestartOnLoss(t *testing.T) {
	mk := func(attempt int) *Cluster {
		c := New(quiet(fabric.EDR()), 2, 4, 7)
		if attempt == 0 {
			c.Sim.After(1, func() {
				c.Net.Faults().Add(fabric.FaultRule{Class: fabric.FaultUDLoss, From: fabric.AnyNode, To: 1, Count: 2})
			})
		}
		return c
	}
	res, err := RecoveryPolicy{MaxRestarts: 3}.Run(mk, BenchOpts{
		Factory:     RDMAProvider(shuffle.Config{Impl: shuffle.SQSR, Endpoints: 4}),
		RowsPerNode: 30_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
	var rows int64
	for _, r := range res.RowsPerNode {
		rows += r
	}
	if rows != 2*30_000 {
		t.Fatalf("rows after restart = %d", rows)
	}
}

// TestRestartGivesUp verifies the cap on restart attempts.
func TestRestartGivesUp(t *testing.T) {
	mk := func(int) *Cluster {
		c := New(quiet(fabric.EDR()), 2, 4, 7)
		c.Sim.After(1, func() {
			c.Net.Faults().Add(fabric.FaultRule{Class: fabric.FaultUDLoss, From: fabric.AnyNode, To: 1, Count: 2})
		})
		return c
	}
	res, err := RecoveryPolicy{MaxRestarts: 2}.Run(mk, BenchOpts{
		Factory:     RDMAProvider(shuffle.Config{Impl: shuffle.SQSR, Endpoints: 4}),
		RowsPerNode: 30_000,
	})
	if !errors.Is(err, ErrRecoveryExhausted) || res.Err == nil {
		t.Fatalf("persistent loss should exhaust recovery with the last attempt's error kept; got %v (last %v)", err, res.Err)
	}
	if res.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", res.Restarts)
	}
}

// TestNewWithOptionsOnePartition: the deprecated NewWithOptions boots what
// New boots at ParallelLPs 0 and 1 — one Simulation, seeded alike — and
// refuses more partitions.
func TestNewWithOptionsOnePartition(t *testing.T) {
	for _, lps := range []int{0, 1} {
		c := NewWithOptions(fabric.FDR(), 4, 2, 9, SimOptions{ParallelLPs: lps})
		if c.Net.SimAt(0) != c.Sim || c.Sim.Seed() != 9 || c.Threads != 2 {
			t.Fatalf("ParallelLPs %d: node 0 on a second Simulation, seed %d, %d threads", lps, c.Sim.Seed(), c.Threads)
		}
		c.Recycle()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewWithOptions accepted ParallelLPs 2")
		}
	}()
	NewWithOptions(fabric.FDR(), 4, 2, 9, SimOptions{ParallelLPs: 2})
}

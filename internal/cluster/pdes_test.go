package cluster_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"rshuffle/internal/cluster"
	"rshuffle/internal/fabric"
	"rshuffle/internal/ipoib"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/telemetry"
)

// Serial-vs-parallel equivalence: the conservative PDES engine promises that
// a given seed produces byte-identical outputs at every logical-partition
// count — ParallelLPs 1 is the reference ordering, one partition with no
// windows at all, and 2 and 8 exercise the windowed parallel path with
// multi-node and single-node partitions respectively. The fingerprint covers
// everything the repository treats as a regression oracle: the full
// benchmark result, the total event count, the metrics registry report, and
// the merged trace stream.

// goMaxProcs forces the true parallel wide-window path even on a single-core
// host (runWide degrades to serial LP order when GOMAXPROCS is 1) and
// restores the previous value on cleanup.
func goMaxProcs(t testing.TB, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// pdesFingerprint runs one receive-throughput query on a cluster of lps
// partitions and renders every observable output as one string.
func pdesFingerprint(t *testing.T, alg shuffle.Algorithm, lps int, chaos bool) string {
	t.Helper()
	c := cluster.NewWithOptions(fabric.FDR(), fpNodes, fpThreads, fpSeed,
		cluster.SimOptions{ParallelLPs: lps})
	return fingerprint(t, c, alg, fmt.Sprintf("lps=%d", lps), chaos)
}

const fpNodes, fpThreads, fpSeed = 8, 2, 42

// fingerprint is pdesFingerprint on a cluster the caller booted.
func fingerprint(t *testing.T, c *cluster.Cluster, alg shuffle.Algorithm, boot string, chaos bool) string {
	t.Helper()
	c.EnableTracing(1 << 13)
	if chaos {
		// The chaos harness's crash-stream scenario: node 1's NIC dies shortly
		// after streaming starts, the heartbeat detector convicts it, and the
		// query fails over with ErrPeerFailed. A crash is a pure time-window
		// fault, so it is PDES-safe; the outcome must be identical at every
		// LP count.
		c.InstallDetector()
		c.AtBenchStart(func() {
			c.Net.Faults().Add(fabric.FaultRule{
				Class: fabric.FaultCrash, To: 1,
				Start: c.Sim.Now().Add(40 * time.Microsecond),
			})
		})
	}
	res, err := c.RunBench(cluster.BenchOpts{
		Factory:     cluster.RDMAProvider(alg.Config(fpThreads)),
		RowsPerNode: 2048,
	})
	if err != nil {
		t.Fatalf("%s %s: %v", alg.Name, boot, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "result: %+v\n", res)
	fmt.Fprintf(&b, "events: %d\n", c.Events())
	if err := telemetry.WriteReport(&b, c.Metrics()); err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Trace() {
		fmt.Fprintf(&b, "%+v\n", e)
	}
	return b.String()
}

// diffLine reports the first line at which two fingerprints diverge, with a
// little context, so a determinism break is diagnosable from the test log.
func diffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  ref: %s\n  got: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestPDESEquivalenceMatrix runs all six Table 1 algorithms, plus one
// crash-stop chaos cell, at 1, 2, and 8 logical partitions and requires the
// complete output fingerprint to be byte-identical across LP counts.
func TestPDESEquivalenceMatrix(t *testing.T) {
	goMaxProcs(t, 4)
	cells := make([]struct {
		name  string
		alg   shuffle.Algorithm
		chaos bool
	}, 0, len(shuffle.Algorithms)+1)
	for _, alg := range shuffle.Algorithms {
		cells = append(cells, struct {
			name  string
			alg   shuffle.Algorithm
			chaos bool
		}{alg.Name, alg, false})
	}
	cells = append(cells, struct {
		name  string
		alg   shuffle.Algorithm
		chaos bool
	}{"crash-stream", shuffle.Algorithms[0], true})

	for _, cell := range cells {
		cell := cell
		t.Run(strings.ReplaceAll(cell.name, "/", "_"), func(t *testing.T) {
			ref := pdesFingerprint(t, cell.alg, 1, cell.chaos)
			for _, lps := range []int{2, 8} {
				got := pdesFingerprint(t, cell.alg, lps, cell.chaos)
				if got != ref {
					t.Fatalf("%s: lps=%d diverges from lps=1 reference\n%s",
						cell.name, lps, diffLine(ref, got))
				}
			}
		})
	}
}

// TestSameInstantTieEquivalence is the regression cell for the same-instant
// delivery-order leak: on the EDR profile with 14 threads and 16 KiB
// buffers, two senders routinely finish serializing messages toward one
// receiver at exactly the same instant. Which barrier delivers each arrival
// depends on the window bounds — which move with the LP count — so before
// the wheel re-sorted same-instant deliveries by their (source, sequence)
// key, the receiver processed the tie in barrier order and the ACK
// completions swapped between LP counts (first seen as a one-cell Fig. 9
// divergence at this exact configuration). The matrix's FDR/2-thread cells
// never produce such ties, so this cell guards the regime separately.
// (Deliberately outside the ^TestPDES -race smoke: the cell moves ~50 MiB
// per node and would dominate that budget.)
func TestSameInstantTieEquivalence(t *testing.T) {
	goMaxProcs(t, 4)
	prof := fabric.EDR()
	prof.UDReorderProb = 0
	run := func(lps int) string {
		cfg := shuffle.Algorithm{Name: "MEMQ/SR", Impl: shuffle.MQSR, ME: true}.Config(prof.Threads)
		cfg.BufSize = 16 << 10
		c := cluster.NewWithOptions(prof, 8, prof.Threads, 143,
			cluster.SimOptions{ParallelLPs: lps})
		res, err := c.RunBench(cluster.BenchOpts{
			Factory: cluster.RDMAProvider(cfg), RowsPerNode: 400000,
		})
		if err != nil {
			t.Fatalf("lps=%d: %v", lps, err)
		}
		if res.Err != nil {
			t.Fatalf("lps=%d: %v", lps, res.Err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "result: %+v\n", res)
		fmt.Fprintf(&b, "events: %d\n", c.Events())
		if err := telemetry.WriteReport(&b, c.Metrics()); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	ref := run(1)
	if got := run(2); got != ref {
		t.Fatalf("lps=2 diverges from lps=1 reference\n%s", diffLine(ref, got))
	}
}

// TestProfilePicksEngine: every profile boots a sim.Group. New,
// SimOptions{} and ParallelLPs 1 are one boot — a one-partition Group — and
// give byte-identical results, metrics reports and merged traces; a lossy
// profile boots one too, and rejects a partition count it cannot honour by
// name.
func TestProfilePicksEngine(t *testing.T) {
	alg := shuffle.Algorithms[0]
	boots := []struct {
		name string
		c    *cluster.Cluster
	}{
		{"New", cluster.New(fabric.FDR(), fpNodes, fpThreads, fpSeed)},
		{"SimOptions{}", cluster.NewWithOptions(fabric.FDR(), fpNodes, fpThreads, fpSeed, cluster.SimOptions{})},
		{"ParallelLPs 1", cluster.NewWithOptions(fabric.FDR(), fpNodes, fpThreads, fpSeed, cluster.SimOptions{ParallelLPs: 1})},
	}
	var ref string
	for _, b := range boots {
		if b.c.Group.LPs() != 1 {
			t.Fatalf("%s: must boot a one-partition Group", b.name)
		}
		got := fingerprint(t, b.c, alg, b.name, false)
		if ref == "" {
			ref = got
		}
		if got != ref {
			t.Fatalf("%s diverges from %s\n%s", b.name, boots[0].name, diffLine(ref, got))
		}
	}
	if !strings.Contains(ref, "Name:wire") {
		t.Fatal("the merged trace holds no wire event: the fingerprint compares control shards only")
	}

	lossy := fabric.RoCEv2Lossy()
	if c := cluster.NewWithOptions(lossy, 4, 2, fpSeed, cluster.SimOptions{ParallelLPs: 1}); c.Group.LPs() != 1 {
		t.Fatal("a lossy profile must boot a one-partition Group")
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, lossy.Name) || !strings.Contains(msg, "ParallelLPs 2") {
			t.Fatalf("lossy profile with ParallelLPs 2: panic %q does not name the profile and the setting", msg)
		}
	}()
	cluster.NewWithOptions(lossy, 4, 2, fpSeed, cluster.SimOptions{ParallelLPs: 2})
}

// TestBaselineTransportEquivalence guards the non-RDMA baselines (MPI,
// IPoIB) on the partitioned engine. Both libraries block worker Procs on
// Mutex/Cond primitives, and waking a waiter pushes a dispatch event onto
// the *primitive's* simulation — so a primitive homed on the control
// partition (as both once were) schedules wakeups on LP 0 at LP 0's clock
// for Procs that live elsewhere, leaving the waiter's home clock behind and
// its next Sleep wake below the window start (caught by the Route bound
// panic on EDR fig08 at ParallelLPs > 1). The MPI cell reproduces the original
// failure: EDR at a row count that keeps all rendezvous slots and the
// library lock contended. (Deliberately outside the ^TestPDES -race smoke:
// the MPI cell moves ~40 MiB per node and would dominate that budget.)
func TestBaselineTransportEquivalence(t *testing.T) {
	goMaxProcs(t, 4)
	prof := fabric.EDR()
	prof.UDReorderProb = 0
	bufTuples := (shuffle.Config{Impl: shuffle.MQSR}.Defaulted().BufSize - shuffle.HeaderSize) / 16
	cells := []struct {
		name    string
		factory cluster.ProviderFactory
		rows    int
	}{
		{"MPI", cluster.MPIProvider(), 6 * prof.Threads * 8 * bufTuples},
		{"IPoIB", cluster.IPoIBProvider(ipoib.Config{}), 100000},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			run := func(lps int) string {
				c := cluster.NewWithOptions(prof, 8, 0, 106,
					cluster.SimOptions{ParallelLPs: lps})
				res, err := c.RunBench(cluster.BenchOpts{
					Factory: cell.factory, RowsPerNode: cell.rows,
				})
				if err != nil {
					t.Fatalf("lps=%d: %v", lps, err)
				}
				if res.Err != nil {
					t.Fatalf("lps=%d: %v", lps, res.Err)
				}
				var b strings.Builder
				fmt.Fprintf(&b, "result: %+v\n", res)
				fmt.Fprintf(&b, "events: %d\n", c.Events())
				if err := telemetry.WriteReport(&b, c.Metrics()); err != nil {
					t.Fatal(err)
				}
				return b.String()
			}
			ref := run(1)
			if got := run(4); got != ref {
				t.Fatalf("lps=4 diverges from lps=1 reference\n%s", diffLine(ref, got))
			}
		})
	}
}

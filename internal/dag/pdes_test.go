package dag

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"rshuffle/internal/cluster"
	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/telemetry"
)

// dagFingerprint runs the multi-stage demo plan (8 nodes x 2 threads) on a
// partitioned cluster and renders every observable output as one string:
// the result (summary table bytes, response and setup time, per-edge
// statistics), the event count, the metrics report with the per-edge
// counters, and the merged trace.
func dagFingerprint(t *testing.T, alg shuffle.Algorithm, lps int) string {
	t.Helper()
	const nodes, threads = 8, 2
	fact, dim := DemoTables(nodes, 2000, 250, 7)
	c := cluster.NewWithOptions(quiet(fabric.EDR()), nodes, threads, 42,
		cluster.SimOptions{ParallelLPs: lps})
	c.EnableTracing(1 << 15)
	res := MultiStageDemo(fact, dim).Run(c, cluster.RDMAProvider(alg.Config(threads)))
	if res.Err != nil {
		t.Fatalf("%s lps=%d: %v", alg.Name, lps, res.Err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "result: %d rows %x elapsed %d setup %d\n",
		res.Rows, res.Result.Data, res.Elapsed, res.SetupTime)
	for _, e := range res.Edges {
		fmt.Fprintf(&b, "edge: %+v\n", e)
	}
	fmt.Fprintf(&b, "events: %d\n", c.Events())
	reg := c.Metrics()
	res.PublishMetrics(reg)
	if err := telemetry.WriteReport(&b, reg); err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Trace() {
		fmt.Fprintf(&b, "%+v\n", e)
	}
	return b.String()
}

// TestPDESDagEquivalence is internal/cluster's TestPDESEquivalenceMatrix for
// plans: a DAG query is a body of the same cluster.Run driver as RunBench,
// so it runs on the partitioned engine and its complete fingerprint must be
// byte-identical at 1, 2 and 8 logical partitions — over an RC Send/Receive,
// a UD and a one-sided Read design, with the stage-end completions riding
// the same routed finish as the query's own.
func TestPDESDagEquivalence(t *testing.T) {
	// Force the parallel wide-window path even on a single-core host.
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, alg := range []shuffle.Algorithm{
		{Name: "MEMQ/SR", Impl: shuffle.MQSR, ME: true},
		{Name: "MESQ/SR", Impl: shuffle.SQSR, ME: true},
		{Name: "MEMQ/RD", Impl: shuffle.MQRD, ME: true},
	} {
		alg := alg
		t.Run(strings.ReplaceAll(alg.Name, "/", "_"), func(t *testing.T) {
			ref := dagFingerprint(t, alg, 1)
			if !strings.Contains(ref, "Name:stage") {
				t.Fatal("fingerprint carries no stage spans")
			}
			for _, lps := range []int{2, 8} {
				got := dagFingerprint(t, alg, lps)
				if got == ref {
					continue
				}
				rl, gl := strings.Split(ref, "\n"), strings.Split(got, "\n")
				for i := 0; i < len(rl) && i < len(gl); i++ {
					if rl[i] != gl[i] {
						t.Fatalf("lps=%d diverges from lps=1 at line %d:\n  ref: %s\n  got: %s", lps, i+1, rl[i], gl[i])
					}
				}
				t.Fatalf("lps=%d diverges from lps=1: %d vs %d lines", lps, len(rl), len(gl))
			}
		})
	}
}

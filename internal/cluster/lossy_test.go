package cluster

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"strings"
	"testing"

	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
	"rshuffle/internal/telemetry"
)

// incast returns the transmission pattern that funnels every node's rows
// into node 0 — the congestion-heaviest plan the shuffle operator can
// produce, and the one the lossy RoCEv2 tier exists to survive.
func incast(n int) shuffle.Groups { return shuffle.Groups{{0}} }

// runLossyIncast shuffles a Zipf-skewed plan — most rows funnel to node 0,
// but every sender also feeds the other seven destinations, so a PFC pause
// on a sender's uplink stalls its victim flows too — on the given fabric and
// returns the result (Err left for the caller to judge).
func runLossyIncast(t *testing.T, prof fabric.Profile, seed int64, rows int) *BenchResult {
	t.Helper()
	c := New(prof, 8, 2, seed)
	cfg := shuffle.Algorithms[0].Config(c.Threads) // MEMQ/SR
	// A deep per-peer send window lets every sender commit far more than the
	// switch buffer: without congestion control the incast must overrun.
	cfg.BuffersPerPeer = 8
	cfg.BufSize = 32 << 10
	res, err := c.RunBench(BenchOpts{
		Factory: RDMAProvider(cfg), RowsPerNode: rows, ZipfExponent: 1.0,
	})
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	return res
}

// TestLossyIncastDCQCNDegradationWhenDisabled asserts the lossy tier's
// congestion-control finding as a rate over seeds 1–10, not as one seed's
// outcome: under RoCEv2Lossy with an incast-heavy skewed plan, the run with
// the DCQCN loop on completes cleanly on strictly more seeds than the run
// with it off. With the loop on, WRED marks hold the hot queue near the
// marking threshold; with it off, the switch tail-drops entire committed
// windows, the NICs burn ACK timeouts on go-back-N replays, and sustained
// overrun exhausts retry budgets. Either leg may fail on a given seed, but
// only the bounded way: a stalled-endpoint or transport-error report within
// a few stall timeouts — never lost rows, a panic or a hang — and a clean
// run delivers every row exactly once.
func TestLossyIncastDCQCNDegradationWhenDisabled(t *testing.T) {
	const rows, seeds = 262144, 10
	off := fabric.RoCEv2Lossy()
	off.DCQCN = false
	bound := 2 * shuffle.Config{}.Defaulted().StallTimeout
	clean := func(prof fabric.Profile, leg string) int {
		n := 0
		for seed := int64(1); seed <= seeds; seed++ {
			res := runLossyIncast(t, prof, seed, rows)
			if res.Err == nil {
				var delivered int64
				for _, r := range res.RowsPerNode {
					delivered += r
				}
				if delivered != 8*rows {
					t.Errorf("%s seed %d: clean run delivered %d of %d rows", leg, seed, delivered, 8*rows)
				}
				n++
				continue
			}
			if errors.Is(res.Err, shuffle.ErrRowsLost) ||
				!(errors.Is(res.Err, shuffle.ErrStalled) || errors.Is(res.Err, shuffle.ErrTransport)) {
				t.Errorf("%s seed %d: want a stalled or transport error, got %v", leg, seed, res.Err)
			}
			if res.Elapsed > bound {
				t.Errorf("%s seed %d: failure took %v, past %v", leg, seed, res.Elapsed, bound)
			}
		}
		return n
	}
	on := clean(fabric.RoCEv2Lossy(), "DCQCN on")
	offClean := clean(off, "DCQCN off")
	t.Logf("clean runs over seeds 1-%d: DCQCN on %d/%d, DCQCN off %d/%d", seeds, on, seeds, offClean, seeds)
	if on <= offClean {
		t.Errorf("DCQCN on completed %d/%d seeds, off %d/%d: disabling congestion control should cost completions",
			on, seeds, offClean, seeds)
	}
}

// TestLossyChaosSmoke runs an RC design and a UD design through the fault
// matrix on the lossy RoCEv2 fabric: congestion hazards (pauses, marks,
// drops, retransmits) compose with injected faults, yet every query must
// converge with all rows delivered and bitwise identical outcomes on a
// same-seed repeat.
func TestLossyChaosSmoke(t *testing.T) {
	opts := chaosOpts()
	opts.Prof = fabric.RoCEv2Lossy()
	want := int64(opts.Nodes) * int64(opts.RowsPerNode)
	algs := []shuffle.Algorithm{shuffle.Algorithms[0], shuffle.Algorithms[2]} // MEMQ/SR, MESQ/SR
	for _, alg := range algs {
		for _, f := range ChaosFaults() {
			alg, f := alg, f
			t.Run(alg.Name+"/"+f.Name, func(t *testing.T) {
				o1, err := RunChaos(alg, f, opts)
				if err != nil {
					t.Fatalf("simulation failed: %v", err)
				}
				o2, err := RunChaos(alg, f, opts)
				if err != nil {
					t.Fatalf("simulation failed on repeat: %v", err)
				}
				if o1 != o2 {
					t.Fatalf("nondeterministic lossy outcome:\n  %+v\n  %+v", o1, o2)
				}
				if o1.Failed {
					t.Fatalf("recovery did not converge on the lossy fabric: %s", o1.Err)
				}
				if o1.Rows != want {
					t.Fatalf("rows = %d, want %d (restarts %d)", o1.Rows, want, o1.Restarts)
				}
			})
		}
	}
}

// TestLossyMatrixConservesRows runs all eight designs on the `make
// trace-rocev2` cell — four nodes funnelling into node 0 on the lossy tier,
// where the switch tail-drops and the RC designs retransmit. Whatever a
// design's transport does about a loss, the query must either deliver every
// row or say it failed, and say the same on a same-seed repeat in the same
// process (recycled registered memory included), down to the trace.
func TestLossyMatrixConservesRows(t *testing.T) {
	const rows = 16384
	run := func(alg shuffle.Algorithm) (delivered int64, err error, hash [32]byte) {
		c := New(fabric.RoCEv2Lossy(), 4, 2, 42)
		c.EnableTracing(1 << 18)
		res, simErr := c.RunBench(BenchOpts{
			Factory: RDMAProvider(alg.Config(c.Threads)), RowsPerNode: rows, GroupsFn: incast,
		})
		if simErr != nil {
			t.Fatalf("%s: simulation failed: %v", alg.Name, simErr)
		}
		for _, r := range res.RowsPerNode {
			delivered += r
		}
		var b bytes.Buffer
		if werr := telemetry.WriteChromeEvents(&b, c.Trace()); werr != nil {
			t.Fatal(werr)
		}
		return delivered, res.Err, sha256.Sum256(b.Bytes())
	}
	for _, alg := range shuffle.ExtendedAlgorithms {
		t.Run(alg.Name, func(t *testing.T) {
			delivered, err, hash := run(alg)
			if err == nil && delivered != 4*rows {
				t.Fatalf("clean run delivered %d of %d rows", delivered, 4*rows)
			}
			if d2, err2, hash2 := run(alg); d2 != delivered || (err2 == nil) != (err == nil) || hash2 != hash {
				t.Fatalf("same-seed repeat differs: %d rows, err %v, trace %x vs %d rows, err %v, trace %x",
					d2, err2, hash2[:4], delivered, err, hash[:4])
			}
		})
	}
}

// tracedLossyRun executes one lossy incast with tracing enabled and returns
// the exported Chrome trace.
func tracedLossyRun(t *testing.T, seed int64, rows int) string {
	t.Helper()
	c := New(fabric.RoCEv2Lossy(), 4, 2, seed)
	c.EnableTracing(1 << 18)
	cfg := shuffle.Algorithms[0].Config(c.Threads)
	res, err := c.RunBench(BenchOpts{
		Factory: RDMAProvider(cfg), RowsPerNode: rows, GroupsFn: incast,
	})
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("traced lossy run errored: %v", res.Err)
	}
	var b strings.Builder
	if err := telemetry.WriteChromeEvents(&b, c.Trace()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestLossyTraceDeterminism extends the trace oracle to the lossy tier:
// same-seed runs with congestion control active — ECN marks, CNPs, rate
// cuts, possibly pause frames and retransmits — must export byte-identical
// Chrome traces, and the new event vocabulary must actually appear.
func TestLossyTraceDeterminism(t *testing.T) {
	a := tracedLossyRun(t, 7, 16384)
	b := tracedLossyRun(t, 7, 16384)
	if a != b {
		t.Fatal("same-seed lossy runs exported different traces")
	}
	if c := tracedLossyRun(t, 7, 16640); c == a {
		t.Fatal("different lossy workloads exported identical traces")
	}
	for _, ev := range []string{`"name":"ecn_mark"`, `"name":"cnp"`, `"name":"rate_cut"`} {
		if !strings.Contains(a, ev) {
			t.Errorf("lossy trace missing event %s", ev)
		}
	}
}

var _ = sim.Duration(0)

package cluster

import (
	"reflect"
	"testing"

	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
)

// TestObserversDoNotMoveTheClock pins that looking at a query does not
// change it: every design, run bare, with a tracer attached, and with the
// fault plan read and the metrics scraped as streaming starts, must report
// the same BenchResult — down to the per-phase NIC counters — and fire the
// same number of simulation events. The size is the one at which a traced
// run used to be a different run (it took the per-message arrival path, a
// bare run a batched one; MEMQ/RD at this seed moved 1.6 %).
func TestObserversDoNotMoveTheClock(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	run := func(t *testing.T, alg shuffle.Algorithm, observe func(*Cluster)) (*BenchResult, uint64) {
		c := New(fabric.FDR(), 8, 14, 23)
		observe(c)
		res, err := c.RunBench(BenchOpts{
			Factory:     RDMAProvider(alg.Config(c.Threads)),
			RowsPerNode: 262144,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res, c.Events()
	}
	observers := []struct {
		name   string
		attach func(*Cluster)
	}{
		{"traced", func(c *Cluster) { c.EnableTracing(1 << 16) }},
		{"fault plan read and metrics scraped", func(c *Cluster) {
			c.AtBenchStart(func() {
				_ = c.Net.Faults().Empty()
				c.Metrics()
			})
		}},
	}
	for _, alg := range shuffle.ExtendedAlgorithms {
		t.Run(alg.Name, func(t *testing.T) {
			bare, bareEvents := run(t, alg, func(*Cluster) {})
			for _, o := range observers {
				res, events := run(t, alg, o.attach)
				if res.Elapsed != bare.Elapsed || events != bareEvents {
					t.Errorf("%s: %d ns in %d events, bare %d ns in %d events",
						o.name, res.Elapsed, events, bare.Elapsed, bareEvents)
				} else if !reflect.DeepEqual(res, bare) {
					t.Errorf("%s: result differs from the bare run\nbare:     %+v\nobserved: %+v",
						o.name, bare, res)
				}
			}
		})
	}
}

package cluster

import (
	"runtime"
	"testing"
	"time"

	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
)

// TestRecycleReleasesProcGoroutines pins that discarding a cluster leaves
// nothing behind: Run's Recycle must shut down the simulation's proc
// goroutines along with returning its rings to the buffer pool. Before
// this guarantee, every cluster leaked its full proc population (about 26
// goroutines at this scale), each parked goroutine pinning the cluster's
// simulation, wheel, and rings — so benchmark and experiment sweeps slowed
// down linearly with the number of clusters built as GC mark and
// stack-scan work accumulated. The setup-only body is the shape of the
// Fig. 12, Table 1 and -metrics census cells, which used to drive
// c.Sim.Run by hand and leaked their one pooled goroutine per cell.
func TestRecycleReleasesProcGoroutines(t *testing.T) {
	cfg := shuffle.Config{Impl: shuffle.SQSR, Endpoints: 2}
	bodies := map[string]func(c *Cluster) error{
		"bench": func(c *Cluster) error {
			_, err := c.RunBench(BenchOpts{Factory: RDMAProvider(cfg), RowsPerNode: 2048})
			return err
		},
		"setup-only": func(c *Cluster) error {
			return c.Run(&Query{Name: "census", Setup: func(p *sim.Proc) {
				shuffle.Build(p, c.Devs, cfg, c.Threads)
			}})
		},
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			run := func() {
				if err := body(New(fabric.FDR(), 4, 2, 42)); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm process-wide pools before taking the baseline
			base := runtime.NumGoroutine()
			for i := 0; i < 8; i++ {
				run()
			}
			// Killed goroutines have handed control back by the time Recycle
			// returns but may not have finished exiting; give them a moment.
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				n = runtime.NumGoroutine()
			}
			if n > base {
				t.Fatalf("goroutines grew %d -> %d over 8 cluster runs; Recycle is leaking procs", base, n)
			}
		})
	}
}

// PoolMisses returns how many ring chunks the process-wide registered-buffer
// pool has had to allocate afresh so far, over all size classes. Exported
// for the macro benchmarks in package cluster_test.
func PoolMisses() (n int64) {
	for _, cl := range verbs.PoolStats() {
		n += cl.Misses
	}
	return n
}

// allocated runs one RunBench query on c and returns the bytes the process
// allocated while it ran, and how many ring chunks the pool missed on.
func allocated(t *testing.T, c *Cluster, cfg shuffle.Config, rows int) (bytes uint64, poolMisses int64) {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	miss0 := PoolMisses()
	res, err := c.RunBench(BenchOpts{Factory: RDMAProvider(cfg), RowsPerNode: rows})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, PoolMisses() - miss0
}

// TestAlternatingRingShapesShareThePool pins that the registered-buffer pool
// serves clusters of different ring shapes from the same parked chunks. With
// one size class per ring shape, a MEMQ/SR cluster (1 GiB of 64 KiB-slot
// rings at this size) filled the pool's budget with buffers a differently
// shaped cluster could not use, and that cluster then allocated its rings
// afresh on every query because the full pool had no room to park them.
func TestAlternatingRingShapesShareThePool(t *testing.T) {
	rc := shuffle.Config{Impl: shuffle.MQSR, Endpoints: 14}
	ud := shuffle.Config{Impl: shuffle.SQSR, Endpoints: 14}
	run := func(cfg shuffle.Config) (uint64, int64) {
		return allocated(t, New(quiet(fabric.FDR()), 8, 14, 7), cfg, 20000)
	}
	run(rc) // warm the pool
	rcRepeat, _ := run(rc)
	udAfterRC, udMisses := run(ud)
	udRepeat, _ := run(ud)
	rcAfterUD, rcMisses := run(rc)
	for _, c := range []struct {
		name      string
		got, want uint64
		misses    int64
	}{
		{"MESQ/SR after MEMQ/SR", udAfterRC, udRepeat, udMisses},
		{"MEMQ/SR after MESQ/SR", rcAfterUD, rcRepeat, rcMisses},
	} {
		if d := float64(c.got)/float64(c.want) - 1; d > 0.10 || d < -0.10 {
			t.Errorf("%s allocated %.1f MB, a same-shape repeat %.1f MB: more than 10%% apart",
				c.name, float64(c.got)/1e6, float64(c.want)/1e6)
		}
		if c.misses != 0 {
			t.Errorf("%s: %d ring chunks allocated afresh, want all served by what the other shape parked",
				c.name, c.misses)
		}
	}
}

// TestWideShuffleAllocationGuard holds the scale-out allocation cliff shut:
// a 32-node × 2-thread MEMQ/SR query registers 2.3 GiB of rings and touches
// about a sixth of them. Backing every registered byte cost 1.7 GB of fresh
// allocation per query; backing only what is touched, from the pool, leaves
// tables, payload snapshots and bookkeeping.
func TestWideShuffleAllocationGuard(t *testing.T) {
	cfg := shuffle.Config{Impl: shuffle.MQSR, Endpoints: 2}
	var got uint64
	for i := 0; i < 3; i++ {
		c := NewWithOptions(fabric.FDR(), 32, 2, 7, SimOptions{ParallelLPs: 1})
		got, _ = allocated(t, c, cfg, 1<<15)
	}
	if got > 300e6 {
		t.Errorf("third 32-node MEMQ/SR query allocated %.0f MB, want under 300 MB", float64(got)/1e6)
	}
}

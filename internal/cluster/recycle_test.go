package cluster

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"rshuffle/internal/bufpool"
	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
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

// PoolMisses returns how many buffers the process-wide buffer pool has had
// to allocate afresh so far, over all size classes. Exported for the macro
// benchmarks in package cluster_test.
func PoolMisses() (n int64) {
	for _, cl := range bufpool.Stats() {
		n += cl.Misses
	}
	return n
}

// chunkMisses returns how many ring chunks (64 KiB for every slot size the
// designs use) the pool has had to allocate afresh so far.
func chunkMisses() int64 {
	for _, cl := range bufpool.Stats() {
		if cl.ClassBytes == 64<<10 {
			return cl.Misses
		}
	}
	return 0
}

// allocated runs one RunBench query on c and returns the bytes the process
// allocated while it ran, and how many ring chunks the pool missed on.
func allocated(t *testing.T, c *Cluster, cfg shuffle.Config, rows int) (bytes uint64, poolMisses int64) {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	miss0 := chunkMisses()
	res, err := c.RunBench(BenchOpts{Factory: RDMAProvider(cfg), RowsPerNode: rows})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, chunkMisses() - miss0
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
	// A datagram query also draws its send snapshots, one MTU each, which no
	// RC query parks; this test is about ring chunks, so park those up front.
	for i := 0; i < 1024; i++ {
		bufpool.Put(make([]byte, 4096))
	}
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

// TestWideTablePaddingIsZero: RunBench draws its tables from the buffer pool
// and writes only key and row id into each row, so the padding columns of a
// wide record are zero only because the store is cleared first. A 64-byte
// RunBench parks its tables (poisoned, under this package's TestMain); the
// next table of that shape must be drawn from those and still equal the
// fresh one SyntheticTableWide builds, byte for byte.
func TestWideTablePaddingIsZero(t *testing.T) {
	opts := BenchOpts{
		Factory:     RDMAProvider(shuffle.Config{Impl: shuffle.MQSR, Endpoints: 2}),
		RowsPerNode: 4096, RowWidth: 64,
	}
	res, err := New(fabric.FDR(), 4, 2, 42).RunBench(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got, want := res.BytesPerNode[0]+res.BytesPerNode[1]+res.BytesPerNode[2]+res.BytesPerNode[3], int64(4*4096*64); got != want {
		t.Fatalf("%d bytes delivered, want %d", got, want)
	}
	class := func() (hits int64) {
		for _, c := range bufpool.Stats() {
			if c.ClassBytes == opts.RowsPerNode*opts.RowWidth {
				return c.Hits
			}
		}
		return 0
	}
	hits := class()
	got := opts.pooledTable(3)
	if class() != hits+1 {
		t.Fatal("the table's store was not one a query had parked")
	}
	want := SyntheticTableWide(3, opts.RowsPerNode, opts.RowWidth)
	if got.N != want.N || !bytes.Equal(got.Data, want.Data) {
		t.Error("a table over a recycled store differs from a fresh one: padding not cleared?")
	}
	bufpool.Put(got.Data)
}

// TestZipfTablePinned holds the skewed RunBench input (BenchOpts
// ZipfExponent) to the bytes its generator has produced since 3f0c6d1.
func TestZipfTablePinned(t *testing.T) {
	tab := BenchOpts{RowsPerNode: 5000, ZipfExponent: 0.8}.pooledTable(3)
	f := fnv.New64a()
	f.Write(tab.Data)
	fmt.Fprintf(f, "|%d|", tab.N)
	if got, want := fmt.Sprintf("%#x", f.Sum64()), "0x8c90a9a13f7de126"; got != want {
		t.Errorf("Zipf table bytes hash to %s, want %s", got, want)
	}
	bufpool.Put(tab.Data)
}

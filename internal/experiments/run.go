package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"rshuffle/internal/cluster"
	"rshuffle/internal/fabric"
	"rshuffle/internal/qperf"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
)

// A cell is one simulation of an exhibit: what a throughput cell varies, a
// key that names it across runs, and the table slots its values land in.
// The record holds parameters only; a cell builds its inputs (tables,
// databases, clusters) when it runs, so laying out every exhibit is cheap.
type cell struct {
	key     string // "fig10/FDR/broadcast/SEMQ-RD/16n"
	prof    fabric.Profile
	nodes   int
	threads int   // per node; 0 = the profile's
	seedOff int64 // added to Options.Seed
	// cfg is the RDMA design under test. A cell whose bench.Factory is set
	// runs that baseline instead, sized like a 64 KiB RC design.
	cfg shuffle.Config
	// bench holds the RunBench settings; zero RowsPerNode means sized by
	// workloadFor.
	bench cluster.BenchOpts
	// read turns a RunBench result into the cell's values; nil reads GiB/s.
	// On a lossy profile a failed query is a data point, read with failed set.
	read func(c *cell, r *cluster.BenchResult, cl *cluster.Cluster, failed bool) []float64
	// body replaces RunBench for the cells that are not a throughput run:
	// qperf, setup-only, TPC-H and DAG cells.
	body func(o Options, c *cell) ([]float64, error)
	// out are the slots the values fill, in order; a single value fills
	// every slot (a constant reference line).
	out []*float64
}

// key names a cell by its coordinates; a design's "/" becomes "-".
func key(parts ...string) string {
	for i, p := range parts {
		parts[i] = strings.ReplaceAll(p, "/", "-")
	}
	return strings.Join(parts, "/")
}

// slots returns the addresses of vals' entries, for a cell filling all.
func slots(vals []float64) []*float64 {
	out := make([]*float64, len(vals))
	for i := range vals {
		out[i] = &vals[i]
	}
	return out
}

// An exhibit is one experiment laid out: its tables, every measured slot
// still empty, and the cells that fill them, in serial order.
type exhibit struct {
	tables []*Table
	cells  []cell
}

// Run lays out the given experiments, runs all their cells through one loop
// and returns each experiment's tables, in the order given.
func Run(o Options, exps ...*Experiment) ([][]*Table, error) {
	out := make([][]*Table, len(exps))
	var cells []*cell
	for i, e := range exps {
		x := e.plan()
		out[i] = x.tables
		for j := range x.cells {
			cells = append(cells, &x.cells[j])
		}
	}
	return out, o.runCells(cells)
}

// runCells runs cells on Workers goroutines, each taking the next cell in
// list order; with one worker that is the serial reference run. Every cell
// writes only its own slots, so completion order cannot reach a table. After
// a failure no further cell starts, and the error returned is the earliest
// cell's in list order: every cell before it had started, so it is the
// error the serial run reports.
func (o Options) runCells(cells []*cell) error {
	workers := o.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, len(cells))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(workers, len(cells)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				if errs[i] = o.runCell(cells[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runCell runs one cell and writes its values into its slots.
func (o Options) runCell(c *cell) error {
	var vals []float64
	if c.body != nil {
		var err error
		if vals, err = c.body(o, c); err != nil {
			return fmt.Errorf("%s: %w", c.key, err)
		}
	} else {
		res, cl, err := o.runBench(c)
		if err != nil && (res == nil || !c.prof.Lossy) {
			return fmt.Errorf("%s: %w", c.key, err)
		}
		read := c.read
		if read == nil {
			read = gibps
		}
		vals = read(c, res, cl, err != nil)
	}
	for i, p := range c.out {
		if len(vals) == 1 {
			*p = vals[0]
		} else {
			*p = vals[i]
		}
	}
	return nil
}

// boot makes the cell's cluster: its profile made quiet, its node and
// thread counts, the run's seed plus the cell's offset.
func (o Options) boot(c *cell) *cluster.Cluster {
	return cluster.New(quiet(c.prof), c.nodes, c.threads, o.Seed+c.seedOff)
}

// provider is the transport factory of the cell's design or baseline.
func (c *cell) provider() cluster.ProviderFactory {
	if c.bench.Factory != nil {
		return c.bench.Factory
	}
	return cluster.RDMAProvider(c.cfg)
}

// runBench runs a receive-throughput cell and folds the engine's error and
// the transport's into one. The result is nil only when the engine failed.
// The cluster is returned for its post-run counters (c.Net.Stats, c.Devs).
func (o Options) runBench(c *cell) (*cluster.BenchResult, *cluster.Cluster, error) {
	opts := c.bench
	cfg := tuneRecvWindow(c.cfg, c.prof, c.nodes)
	if opts.Factory == nil {
		opts.Factory = cluster.RDMAProvider(cfg)
	} else {
		cfg = shuffle.Config{Impl: shuffle.MQSR}
	}
	if opts.RowsPerNode == 0 {
		opts.RowsPerNode, opts.Passes = workloadFor(cfg, c.prof, c.nodes, opts.Groups)
	}
	cl := o.boot(c)
	res, err := cl.RunBench(opts)
	if err == nil {
		err = res.Err
	}
	return res, cl, err
}

// gibps is the default readout: per-node receive throughput, or '-' for a
// failed query on a lossy profile.
func gibps(_ *cell, r *cluster.BenchResult, _ *cluster.Cluster, failed bool) []float64 {
	if failed {
		return []float64{math.NaN()}
	}
	return []float64{r.GiBps()}
}

// qperfLine is the body of a qperf reference cell: one pair streaming 1 GiB
// in 64 KiB messages on the cell's profile.
func qperfLine(_ Options, c *cell) ([]float64, error) {
	return []float64{qperf.Run(c.prof, 64<<10, 1<<30).GiBps()}, nil
}

// buildOnly is the core of a setup-only cell: it builds the cell's design on
// a fresh cluster and stops; the Comm it returns holds the setup costs.
func (o Options) buildOnly(c *cell) (*shuffle.Comm, error) {
	cl := o.boot(c)
	var comm *shuffle.Comm
	err := cl.Run(&cluster.Query{Name: "setup", Setup: func(p *sim.Proc) {
		comm = shuffle.Build(p, cl.Devs, c.cfg, cl.Threads)
	}})
	return comm, err
}

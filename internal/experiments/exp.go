// Package experiments reproduces every table and figure of the paper's
// evaluation (§5): one driver per exhibit, each printing the same rows and
// series the paper reports, measured in virtual time on the simulated
// cluster. Absolute numbers depend on the calibrated cost model; the shapes
// (who wins, by how much, where the crossovers fall) are the reproduction
// targets recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"

	"rshuffle/internal/cluster"
	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
)

// Options configures a reproduction run.
type Options struct {
	// Fast shrinks data volumes for CI-speed runs; the full volumes give
	// smoother steady-state numbers.
	Fast bool
	// Seed for the simulations.
	Seed int64
	// Workers selects the cell execution mode: 1 runs every simulation cell
	// serially on the calling goroutine (the reference path); any other
	// value fans independent cells out across a process-wide GOMAXPROCS
	// worker pool. Both modes produce byte-identical tables — each cell is
	// its own deterministic Simulation and parallelism only moves wall-clock
	// time (see pool.go).
	Workers int
	// ParallelLPs spreads every cell — throughput, setup-only, DAG and TPC-H
	// alike, since all boot through newCluster and run through cluster.Run —
	// over that many logical partitions (see internal/sim/pdes.go); 0 and 1
	// both mean one, and results are byte-identical at every count.
	// Complementary to Workers: cell-parallel sweeps spread *independent*
	// simulations over cores, LP-parallelism spreads *one big* simulation —
	// combine with Workers=1 to give a single large run the whole machine.
	// Lossy-profile cells ignore the setting: they run on one partition
	// (see cluster.NewWithOptions).
	ParallelLPs int
}

// newCluster boots one experiment cell. A sweep mixes lossless and lossy
// cells under one ParallelLPs, so the lossy ones drop it here rather than
// have cluster.NewWithOptions reject it.
func (o Options) newCluster(prof fabric.Profile, nodes, threads int, seed int64) *cluster.Cluster {
	lps := o.ParallelLPs
	if prof.Lossy {
		lps = 0
	}
	return cluster.NewWithOptions(prof, nodes, threads, seed,
		cluster.SimOptions{ParallelLPs: lps})
}

// fills is the steady-state target: how many times each (thread,
// destination) stream should fill its transmission buffer.
func (o Options) fills() int {
	if o.Fast {
		return 6
	}
	return 20
}

// workload returns RowsPerNode and Passes for a steady-state run of the
// given configuration, capping resident table size.
func (o Options) workload(cfg shuffle.Config, prof fabric.Profile, nodes int) (rows, passes int) {
	cfg = cfg.Defaulted()
	bufTuples := (cfg.BufSize - shuffle.HeaderSize) / 16
	if cfg.Impl == shuffle.SQSR {
		bufTuples = (prof.MTU - shuffle.HeaderSize) / 16
	}
	need := o.fills() * prof.Threads * nodes * bufTuples
	const maxRows = 4_000_000 // 64 MiB per node resident
	rows = need
	passes = 1
	for rows > maxRows {
		passes++
		rows = need / passes
	}
	// Keep at least ~16 MiB per node so the measurement is past the ramp.
	if rows < 1_000_000 {
		rows = 1_000_000
	}
	return rows, passes
}

// Row is one series of an experiment table.
type Row struct {
	Name string
	Vals []float64
}

// Table is one exhibit's result in a printable form.
type Table struct {
	ID    string // "Figure 8(a)"
	Title string
	Unit  string
	Cols  []string
	Rows  []Row
	Notes []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s", t.ID, t.Title)
	if t.Unit != "" {
		fmt.Fprintf(&b, " [%s]", t.Unit)
	}
	b.WriteByte('\n')
	name := 10
	for _, r := range t.Rows {
		if len(r.Name) > name {
			name = len(r.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s", name+2, "")
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%10s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", name+2, r.Name)
		for _, v := range r.Vals {
			switch {
			case v != v: // NaN marks a cell the paper leaves empty
				fmt.Fprintf(&b, "%10s", "-")
			case v >= 1000:
				fmt.Fprintf(&b, "%10.0f", v)
			default:
				fmt.Fprintf(&b, "%10.2f", v)
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// quiet disables UD reordering randomness for smoother sweeps; correctness
// under reordering is covered by the test suite.
func quiet(p fabric.Profile) fabric.Profile {
	p.UDReorderProb = 0
	return p
}

// tuneRecvWindow caps the per-source receive window so that large message
// sizes keep the resident set bounded (the real clusters had 64-128 GiB per
// node; the simulator shares one machine).
func tuneRecvWindow(cfg shuffle.Config, prof fabric.Profile, nodes int) shuffle.Config {
	c := cfg.Defaulted()
	if c.Impl == shuffle.SQSR {
		return c
	}
	const budget = 160 << 20 // per-node receive-window budget
	// Per node, every thread holds RecvBuffersPerPeer slots per source
	// regardless of how threads map to endpoints.
	rbp := budget / (prof.Threads * nodes * c.BufSize)
	if rbp > c.RecvBuffersPerPeer {
		rbp = c.RecvBuffersPerPeer
	}
	if rbp < 2 {
		rbp = 2
	}
	c.RecvBuffersPerPeer = rbp
	return c
}

// workloadFor is workload adjusted for the transmission pattern: broadcast
// multiplies received volume by the fan-out, so the source table shrinks
// accordingly to keep simulated traffic comparable.
func (o Options) workloadFor(cfg shuffle.Config, prof fabric.Profile, nodes int, groups shuffle.Groups) (rows, passes int) {
	rows, passes = o.workload(cfg, prof, nodes)
	fanout := 1
	for _, g := range groups {
		if len(g) > fanout {
			fanout = len(g)
		}
	}
	if fanout > 1 {
		rows /= fanout
		if rows < 150_000 {
			rows = 150_000
		}
	}
	return rows, passes
}

// runBench is the one door for a receive-throughput cell: it boots the
// cell's cluster (quiet profile, the run's seed plus seedOff, on the engine
// -lps selects), runs opts and folds the engine's error and the transport's
// into one. The result is nil only when the engine failed; callers that
// report a failed query as a data point read it beside the error. The
// cluster is returned for its post-run counters (c.Net.Stats, c.Metrics).
func (o Options) runBench(prof fabric.Profile, nodes, threads int, seedOff int64, opts cluster.BenchOpts) (*cluster.BenchResult, *cluster.Cluster, error) {
	c := o.newCluster(quiet(prof), nodes, threads, o.Seed+seedOff)
	res, err := c.RunBench(opts)
	if err == nil {
		err = res.Err
	}
	return res, c, err
}

// runThroughput executes one steady-state receive-throughput cell of an
// RDMA design, sized by workloadFor.
func (o Options) runThroughput(prof fabric.Profile, cfg shuffle.Config, nodes int, groups shuffle.Groups, seedOff int64) (*cluster.BenchResult, error) {
	cfg = tuneRecvWindow(cfg, prof, nodes)
	rows, passes := o.workloadFor(cfg, prof, nodes, groups)
	res, _, err := o.runBench(prof, nodes, 0, seedOff, cluster.BenchOpts{
		Factory:     cluster.RDMAProvider(cfg),
		RowsPerNode: rows,
		Passes:      passes,
		Groups:      groups,
	})
	return res, err
}

// fourSRAlgos are the Send/Receive designs swept in Fig. 8.
var fourSRAlgos = []shuffle.Algorithm{
	{Name: "SEMQ/SR", Impl: shuffle.MQSR, ME: false},
	{Name: "MEMQ/SR", Impl: shuffle.MQSR, ME: true},
	{Name: "SESQ/SR", Impl: shuffle.SQSR, ME: false},
	{Name: "MESQ/SR", Impl: shuffle.SQSR, ME: true},
}

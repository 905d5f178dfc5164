// Package experiments reproduces every table and figure of the paper's
// evaluation (§5): each exhibit is a list of cells — one simulation each —
// and the tables they fill, with the same rows and series the paper
// reports, measured in virtual time on the simulated cluster. Absolute
// numbers depend on the calibrated cost model; the shapes (who wins, by how
// much, where the crossovers fall) are the reproduction targets recorded in
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"

	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
)

// Options configures a reproduction run.
type Options struct {
	// Seed for the simulations.
	Seed int64
	// Workers is how many cells run at once: 1 runs them one after another
	// in list order, the reference run; 0 means one per CPU (GOMAXPROCS).
	// Every cell is its own deterministic simulation, so the tables are
	// byte-identical at any count; only wall-clock time moves (see run.go).
	Workers int
}

// fills is the steady-state target: how many times each (thread,
// destination) stream should fill its transmission buffer.
const fills = 6

// workload returns RowsPerNode and Passes for a steady-state run of the
// given configuration, capping resident table size.
func workload(cfg shuffle.Config, prof fabric.Profile, nodes int) (rows, passes int) {
	cfg = cfg.Defaulted()
	bufTuples := (cfg.BufSize - shuffle.HeaderSize) / 16
	if cfg.Impl == shuffle.SQSR {
		bufTuples = (prof.MTU - shuffle.HeaderSize) / 16
	}
	need := fills * prof.Threads * nodes * bufTuples
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

// series appends a row with one empty slot per column and returns the slots.
func (t *Table) series(name string) []float64 {
	vals := make([]float64, len(t.Cols))
	t.Rows = append(t.Rows, Row{Name: name, Vals: vals})
	return vals
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
func workloadFor(cfg shuffle.Config, prof fabric.Profile, nodes int, groups shuffle.Groups) (rows, passes int) {
	rows, passes = workload(cfg, prof, nodes)
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

// fourSRAlgos are the Send/Receive designs swept in Fig. 8.
var fourSRAlgos = []shuffle.Algorithm{
	{Name: "SEMQ/SR", Impl: shuffle.MQSR, ME: false},
	{Name: "MEMQ/SR", Impl: shuffle.MQSR, ME: true},
	{Name: "SESQ/SR", Impl: shuffle.SQSR, ME: false},
	{Name: "MESQ/SR", Impl: shuffle.SQSR, ME: true},
}

package cluster

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rshuffle/internal/fabric"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/telemetry"
)

// wireGolden is the checked-in fingerprint table: one line per cell.
// Delete the file and run `make wire-check` to capture it afresh (the run
// that writes it fails, so a capture is never mistaken for a pass).
const wireGolden = "testdata/wire_golden.txt"

// wireCell is one small whole-query run whose wire behaviour is pinned.
type wireCell struct {
	name           string
	prof           fabric.Profile
	nodes, threads int
	cfg            shuffle.Config
	opts           BenchOpts
}

// wireCells lists the matrix: every design of ExtendedAlgorithms on FDR and
// EDR under six shapes that each reach a different corner of the endpoint
// and port code (repartition, broadcast, credit frequency 1, 4 KiB buffers,
// hardware multicast, two endpoints), plus three lossy RoCEv2 incasts per
// design (the `make trace-rocev2` cell, and the skewed 8-node incast with
// DCQCN on and off).
func wireCells() []wireCell {
	var cells []wireCell
	shapes := []struct {
		name string
		mut  func(cfg *shuffle.Config, o *BenchOpts)
	}{
		{"repartition", func(*shuffle.Config, *BenchOpts) {}},
		{"broadcast", func(_ *shuffle.Config, o *BenchOpts) {
			o.GroupsFn = func(n int) shuffle.Groups { return shuffle.Broadcast(n) }
			o.RowsPerNode /= 4
		}},
		{"f1", func(cfg *shuffle.Config, _ *BenchOpts) { cfg.CreditFrequency = 1 }},
		{"buf4k", func(cfg *shuffle.Config, _ *BenchOpts) { cfg.BufSize = 4 << 10 }},
		{"hwmcast", func(cfg *shuffle.Config, o *BenchOpts) {
			cfg.HWMulticast = true
			o.GroupsFn = func(n int) shuffle.Groups { return shuffle.Broadcast(n) }
			o.RowsPerNode /= 4
		}},
		{"2ep", func(cfg *shuffle.Config, _ *BenchOpts) { cfg.Endpoints = 2 }},
	}
	for _, prof := range []fabric.Profile{fabric.FDR(), fabric.EDR()} {
		for _, alg := range shuffle.ExtendedAlgorithms {
			for _, sh := range shapes {
				cfg := alg.Config(4)
				opts := BenchOpts{RowsPerNode: 8192}
				sh.mut(&cfg, &opts)
				cells = append(cells, wireCell{
					name: prof.Name + "/" + alg.Name + "/" + sh.name,
					prof: prof, nodes: 4, threads: 4, cfg: cfg, opts: opts,
				})
			}
		}
	}
	noCC := fabric.RoCEv2Lossy()
	noCC.DCQCN = false
	for _, alg := range shuffle.ExtendedAlgorithms {
		cells = append(cells, wireCell{
			name: "RoCEv2/" + alg.Name + "/incast4", prof: fabric.RoCEv2Lossy(),
			nodes: 4, threads: 2, cfg: alg.Config(2),
			opts: BenchOpts{RowsPerNode: 16384, GroupsFn: incast},
		})
		for _, v := range []struct {
			name string
			prof fabric.Profile
		}{{"zipf8", fabric.RoCEv2Lossy()}, {"zipf8-nocc", noCC}} {
			cfg := alg.Config(2)
			cfg.BuffersPerPeer, cfg.BufSize = 8, 32<<10
			cells = append(cells, wireCell{
				name: "RoCEv2/" + alg.Name + "/" + v.name, prof: v.prof,
				nodes: 8, threads: 2, cfg: cfg,
				opts: BenchOpts{RowsPerNode: 32768, ZipfExponent: 1.0},
			})
		}
	}
	return cells
}

// fingerprint runs the cell once traced and returns its golden line: the
// response time, the verb and wire census, the rows delivered, whether the
// run errored, and the hash of the full Chrome trace. It also checks that
// the cell's design, and only an RD design, completed RDMA Reads.
func (wc wireCell) fingerprint(t *testing.T) string {
	t.Helper()
	c := New(wc.prof, wc.nodes, wc.threads, 42)
	c.EnableTracing(1 << 20)
	opts := wc.opts
	opts.Factory = RDMAProvider(wc.cfg)
	res, err := c.RunBench(opts)
	if err != nil {
		t.Fatalf("%s: simulation failed: %v", wc.name, err)
	}
	var trace bytes.Buffer
	if err := telemetry.WriteChromeEvents(&trace, c.Trace()); err != nil {
		t.Fatal(err)
	}
	var rows int64
	for _, r := range res.RowsPerNode {
		rows += r
	}
	reg := c.Metrics()
	// RDMA Read is the RD designs' verb alone: their receivers pull every
	// buffer, and no SR or WR design posts one.
	if reads, rd := reg.CounterValue("verbs.reads_completed.total"), strings.Contains(wc.name, "/RD/"); rd != (reads > 0) {
		t.Errorf("%s: verbs.reads_completed.total = %d", wc.name, reads)
	}
	return fmt.Sprintf("%s elapsed=%d posts=%d polls=%d tx=%d rows=%d err=%t trace=%x",
		wc.name, int64(res.Elapsed), reg.CounterValue("verbs.posts.total"),
		reg.CounterValue("verbs.polls.total"), reg.CounterValue("fabric.tx_messages.total"),
		rows, res.Err != nil, sha256.Sum256(trace.Bytes()))
}

// TestWireGolden is the fast refactoring oracle behind `make wire-check`:
// every cell's fingerprint must equal the checked-in line. A change that is
// meant to be invisible on the wire passes untouched; one that means to move
// a tier re-captures exactly the lines it moves, and the diff of the golden
// file shows which.
func TestWireGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("120 whole-query cells")
	}
	var got []string
	for _, wc := range wireCells() {
		got = append(got, wc.fingerprint(t))
	}
	text := strings.Join(got, "\n") + "\n"
	want, err := os.ReadFile(wireGolden)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(wireGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("captured %d cells into %s; review the diff and rerun", len(got), wireGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("%s holds %d cells, the matrix has %d", wireGolden, len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("cell moved:\n  got  %s\n  want %s", got[i], wantLines[i])
		}
	}
}

package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"rshuffle/internal/bufpool"
)

// TestRunCellsSemantics covers the loop's contract: one worker runs the
// cells in list order and stops at the first failure; more workers report
// the earliest failing cell in list order, what the serial run reports, as
// "key: err".
func TestRunCellsSemantics(t *testing.T) {
	var ran atomic.Int32
	list := func() []*cell {
		var cells []*cell
		for i, err := range []error{nil, errors.New("b"), nil, errors.New("d")} {
			cells = append(cells, &cell{key: fmt.Sprintf("c%d", i), body: func(Options, *cell) ([]float64, error) {
				ran.Add(1)
				return nil, err
			}})
		}
		return cells
	}
	for _, workers := range []int{1, 0, 2, 4} {
		ran.Store(0)
		err := Options{Workers: workers}.runCells(list())
		if err == nil || err.Error() != "c1: b" {
			t.Fatalf("%d workers: err=%v, want c1: b", workers, err)
		}
		if n := ran.Load(); n < 2 || workers == 1 && n != 2 {
			t.Fatalf("%d workers: ran %d cells", workers, n)
		}
	}
}

// TestCellKeysUnique lays out every exhibit without running it: each cell's
// key is unique across all exhibits, starts with its exhibit's name, and
// the cell fills at least one slot.
func TestCellKeysUnique(t *testing.T) {
	seen := map[string]string{}
	total := 0
	for _, e := range All {
		for _, c := range e.plan().cells {
			if prev, ok := seen[c.key]; ok {
				t.Errorf("key %q in %s is also in %s", c.key, e.Name, prev)
			}
			seen[c.key] = e.Name
			if !strings.HasPrefix(c.key, e.Name+"/") {
				t.Errorf("key %q does not start with its exhibit %q", c.key, e.Name)
			}
			if len(c.out) == 0 {
				t.Errorf("cell %q fills no slot", c.key)
			}
			total++
		}
	}
	t.Logf("%d cells in %d exhibits", total, len(All))
}

// TestParallelMatchesSerial is the determinism acceptance check: the loop
// at one worker per CPU must produce byte-identical tables to the serial
// reference run. Every cell owns a private Simulation, so completion order
// cannot leak into the assembled rows.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	exps := []*Experiment{Find("table1"), Find("fig14a")}
	serial, err := Run(Options{Seed: 7, Workers: 1}, exps...)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	pooled, err := Run(Options{Seed: 7, Workers: 0}, exps...)
	if err != nil {
		t.Fatalf("pooled: %v", err)
	}
	for i, e := range exps {
		if s, p := serial[i][0].Format(), pooled[i][0].Format(); s != p {
			t.Fatalf("%s: pooled table differs from serial reference\nserial:\n%s\npooled:\n%s", e.Name, s, p)
		}
	}
}

// TestTwoWorkersShareTheBufferPool: cells that run at the same time draw
// their row stores, ring chunks and datagram snapshots from one process-wide
// pool and return them to it, so a store handed back while anybody still
// reads it, or handed out twice, would move a number in some cell. The DAG
// exhibit — hash aggregation, a join and three shuffles a cell, over RC and
// UD designs — must read the same with two cells in flight as with one. The
// pool poisons what it is handed back for the duration (not for the whole
// package: filling every table and chunk the sweeps park costs a minute).
func TestTwoWorkersShareTheBufferPool(t *testing.T) {
	defer bufpool.PoisonForTest()()
	one := exhibitTables(t, "ext-dag", Options{Seed: 7, Workers: 1})
	two := exhibitTables(t, "ext-dag", Options{Seed: 7, Workers: 2})
	if a, b := one[0].Format(), two[0].Format(); a != b {
		t.Fatalf("two workers read differently from one\none:\n%s\ntwo:\n%s", a, b)
	}
}

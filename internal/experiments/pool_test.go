package experiments

import (
	"errors"
	"sync/atomic"
	"testing"

	"rshuffle/internal/bufpool"
)

// TestRunJobsSemantics covers the pool contract both drivers rely on: serial
// mode preserves order and short-circuits, parallel mode runs every job and
// reports the earliest job's error (what a serial run would have seen).
func TestRunJobsSemantics(t *testing.T) {
	var order []int
	serial := Options{Workers: 1}
	err := serial.runJobs([]func() error{
		func() error { order = append(order, 0); return nil },
		func() error { order = append(order, 1); return nil },
		func() error { order = append(order, 2); return nil },
	})
	if err != nil || len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("serial mode: err=%v order=%v", err, order)
	}

	ran := 0
	errB := errors.New("b")
	err = serial.runJobs([]func() error{
		func() error { ran++; return errB },
		func() error { ran++; return nil },
	})
	if err != errB || ran != 1 {
		t.Fatalf("serial mode should short-circuit: err=%v ran=%d", err, ran)
	}

	var count atomic.Int32
	pooled := Options{Workers: 0}
	errA, errC := errors.New("a"), errors.New("c")
	jobs := []func() error{
		func() error { count.Add(1); return nil },
		func() error { count.Add(1); return errA },
		func() error { count.Add(1); return nil },
		func() error { count.Add(1); return errC },
	}
	if err := pooled.runJobs(jobs); err != errA {
		t.Fatalf("pooled mode should report the earliest error, got %v", err)
	}
	if count.Load() != 4 {
		t.Fatalf("pooled mode should run every job, ran %d", count.Load())
	}
}

// TestParallelMatchesSerial is the determinism acceptance check: the pooled
// driver must produce byte-identical tables to the serial reference path.
// Every cell owns a private Simulation, so completion order cannot leak into
// the assembled rows.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	exhibits := []struct {
		name string
		run  func(Options) (*Table, error)
	}{
		{"table1", Table1},
		{"fig14a", Fig14a},
	}
	for _, ex := range exhibits {
		serialT, err := ex.run(Options{Fast: true, Seed: 7, Workers: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", ex.name, err)
		}
		pooledT, err := ex.run(Options{Fast: true, Seed: 7, Workers: 0})
		if err != nil {
			t.Fatalf("%s pooled: %v", ex.name, err)
		}
		if s, p := serialT.Format(), pooledT.Format(); s != p {
			t.Fatalf("%s: pooled table differs from serial reference\nserial:\n%s\npooled:\n%s", ex.name, s, p)
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
	SetParallelism(2)
	defer SetParallelism(0)
	one, err := ExtDag(Options{Fast: true, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	two, err := ExtDag(Options{Fast: true, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := one.Format(), two.Format(); a != b {
		t.Fatalf("two workers read differently from one\none:\n%s\ntwo:\n%s", a, b)
	}
}

package shuffle

import (
	"testing"
	"time"
)

// drainReopenCycle exercises the PeerDrainer/PeerResumer contract on every
// endpoint of node 0: drain peer 1 twice (idempotent), then reopen twice
// (also idempotent). It runs from a scheduler callback mid-stream, so the
// query that follows proves the cycle left the flow-control accounting
// intact — any leaked credit or stuck buffer would deadlock or fail the
// run.
func drainReopenCycle(t *testing.T, r *shuffleRun) {
	t.Helper()
	node := r.comm.Nodes[0]
	eps := make([]interface{}, 0, len(node.Send)+len(node.Recv))
	for _, s := range node.Send {
		eps = append(eps, s)
	}
	for _, rc := range node.Recv {
		eps = append(eps, rc)
	}
	for _, ep := range eps {
		pd, ok := ep.(PeerDrainer)
		if !ok {
			t.Errorf("%T does not implement PeerDrainer", ep)
			continue
		}
		pr, ok := ep.(PeerResumer)
		if !ok {
			t.Errorf("%T does not implement PeerResumer", ep)
			continue
		}
		pd.DrainPeer(1)
		pd.DrainPeer(1) // idempotent
		pr.ReopenPeer(1)
		pr.ReopenPeer(1) // idempotent
		// Out-of-range peers must be ignored, not panic or corrupt state.
		pd.DrainPeer(-1)
		pd.DrainPeer(99)
		pr.ReopenPeer(-1)
		pr.ReopenPeer(99)
	}
}

// TestDrainReopenPerImpl runs the drain/reopen cycle mid-stream for every
// endpoint implementation and checks the shuffle still completes with
// exactly-once delivery: the reopened peer resumed, and no credits leaked.
func TestDrainReopenPerImpl(t *testing.T) {
	const nodes, threads, rows = 3, 2, 8000
	for _, cfg := range allConfigs(threads) {
		cfg := cfg
		t.Run(cfg.Name(threads), func(t *testing.T) {
			r := launch(t, quietEDR(), cfg, nodes, threads, rows, Repartition(nodes), 42)
			// Fire after connection setup but within the stream; setup time
			// varies per config, so poll until the comm layer exists.
			var arm func()
			arm = func() {
				if r.comm == nil {
					r.sim.After(50*time.Microsecond, arm)
					return
				}
				drainReopenCycle(t, r)
			}
			r.sim.After(200*time.Microsecond, arm)
			if err := r.sim.Run(); err != nil {
				t.Fatal(err)
			}
			if err := CheckErr(r.sends, r.recvs); err != nil {
				t.Fatal(err)
			}
			verifyRepartition(t, r, nodes, rows)
		})
	}
}

// TestProgressWatermarks checks the per-source progress interface across
// all implementations: after a clean run every source is Complete and the
// per-source row counts sum to the node's total.
func TestProgressWatermarks(t *testing.T) {
	const nodes, threads, rows = 3, 2, 6000
	for _, cfg := range allConfigs(threads) {
		cfg := cfg
		t.Run(cfg.Name(threads), func(t *testing.T) {
			r := runShuffle(t, quietEDR(), cfg, nodes, threads, rows, Repartition(nodes))
			for a := 0; a < nodes; a++ {
				prog := r.recvs[a].Progress(nodes)
				var sum int64
				for src, pp := range prog {
					if !pp.Complete {
						t.Fatalf("node %d: source %d not complete after a clean run", a, src)
					}
					sum += pp.Rows
				}
				if sum != r.recvs[a].Rows {
					t.Fatalf("node %d: per-source rows sum %d != total %d", a, sum, r.recvs[a].Rows)
				}
			}
		})
	}
}

// TestSkipToSuppressesPartitions runs a repartition shuffle with every
// sender skipping destination 1: node 1 receives a clean zero-row stream
// (end-of-stream still propagates), the other nodes receive exactly what
// the baseline run delivers, and the run reports no error.
func TestSkipToSuppressesPartitions(t *testing.T) {
	const nodes, threads, rows = 3, 2, 8000
	cfg := Config{Impl: MQSR, Endpoints: threads}.Defaulted()
	base := runShuffle(t, quietEDR(), cfg, nodes, threads, rows, Repartition(nodes))

	skip := make([]bool, nodes)
	skip[1] = true
	r := launchRun(t, runOpts{prof: quietEDR(), cfg: cfg, nodes: nodes, threads: threads,
		rowsPerNode: rows, groups: Repartition(nodes), skip: skip, seed: 42})
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if err := CheckErr(r.sends, r.recvs); err != nil {
		t.Fatal(err)
	}
	if got := r.results[1].Rows; got != 0 {
		t.Fatalf("skipped destination received %d rows, want 0", got)
	}
	for _, a := range []int{0, 2} {
		if r.results[a].Rows != base.results[a].Rows {
			t.Fatalf("node %d: %d rows with skip, %d without", a, r.results[a].Rows, base.results[a].Rows)
		}
	}
	// The skipped node's stream is protocol-complete: every source delivered
	// its end-of-stream marker, just with zero rows.
	for src, pp := range r.recvs[1].Progress(nodes) {
		if !pp.Complete || pp.Rows != 0 {
			t.Fatalf("skipped node: source %d progress = %+v, want complete with 0 rows", src, pp)
		}
	}
}

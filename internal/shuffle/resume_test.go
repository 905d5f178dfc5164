package shuffle

import (
	"fmt"
	"testing"
	"time"

	"rshuffle/internal/engine"
	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
	"rshuffle/internal/verbs"
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

// launchSkip mirrors launch but attaches a SkipTo set to every sending
// shuffle at construction, the way partial-restart recovery does.
func launchSkip(t *testing.T, cfg Config, nodes, threads, rowsPerNode int, skip []bool) *shuffleRun {
	t.Helper()
	s := sim.New(42)
	net := fabric.New(s, quietEDR(), nodes)
	devs := verbs.OpenAll(net)
	r := &shuffleRun{sim: s, net: net}
	r.sends = make([]*Shuffle, nodes)
	r.recvs = make([]*Receive, nodes)
	r.results = make([]*engine.Sink, nodes)

	sch := engine.NewSchema(engine.TInt64, engine.TInt64)
	tables := make([]*engine.Table, nodes)
	for a := 0; a < nodes; a++ {
		tbl := engine.NewTable(sch)
		w := engine.NewWriter(tbl)
		for i := 0; i < rowsPerNode; i++ {
			w.SetInt64(0, int64(i*7+a))
			w.SetInt64(1, int64(a)<<32|int64(i))
			w.Done()
		}
		tables[a] = tbl
	}

	groups := Repartition(nodes)
	s.Spawn("query", func(p *sim.Proc) {
		r.comm = Build(p, devs, cfg, threads)
		done := s.NewWaitGroup("query")
		for a := 0; a < nodes; a++ {
			a := a
			sctx := &engine.Ctx{S: s, Prof: &net.Prof, Threads: threads, Node: a}
			r.sends[a] = &Shuffle{
				In: &engine.Scan{T: tables[a]}, Comm: r.comm, Node: a,
				G: groups, Key: KeyInt64Col(0), SkipTo: skip,
			}
			sendSink := &engine.Sink{In: r.sends[a]}
			done.Add(1)
			sendSink.Run(sctx, fmt.Sprintf("send%d", a), func(p *sim.Proc) { done.Done() })

			rctx := &engine.Ctx{S: s, Prof: &net.Prof, Threads: threads, Node: a}
			r.recvs[a] = &Receive{Comm: r.comm, Node: a, Sch: sch}
			r.results[a] = &engine.Sink{In: r.recvs[a], Keep: true}
			done.Add(1)
			r.results[a].Run(rctx, fmt.Sprintf("recv%d", a), func(p *sim.Proc) { done.Done() })
		}
	})
	return r
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
	r := launchSkip(t, cfg, nodes, threads, rows, skip)
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

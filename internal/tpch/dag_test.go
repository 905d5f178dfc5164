package tpch

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"rshuffle/internal/cluster"
	"rshuffle/internal/dag"
	"rshuffle/internal/engine"
	"rshuffle/internal/sim"
)

// TestDagPlansGolden pins the declarative plans to golden values: for Q3,
// Q4 (both layouts), and Q10 on an identically seeded cluster, the result
// table bytes (same rows, same order, same float bits), the row count and
// the virtual response time must not move. The result constants were
// captured at the last commit that still carried the hand-wired
// RunQ3/RunQ4/RunQ10 drivers; the response times carry one route latency per
// fragment completion; Q3's and Q10's moved when their top-N went below
// the gather, and their result bytes did not. All four moved when every
// fan-out started past its sender, and Q10's float sums, now added in a
// different arrival order, moved in the last bits (they still match the
// IPoIB plan to 1e-16 relative). Two logical partitions must reproduce all
// three.
func TestDagPlansGolden(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // the parallel window path, even on one core
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	cases := []struct {
		name    string
		q       int
		layout  Layout
		local   bool
		seed    int64
		sha     string
		rows    int64
		elapsed sim.Duration
	}{
		{"q3", 3, Random, false, 13,
			"cd9a8a583ad27dd0aa2db632d7a9e252f061506de3d9f9f6299e99d657317123", 10, 62458},
		{"q4", 4, Random, false, 11,
			"450f6d8cc7fa693fcd464929cd49085b1b822045b87043c206dccee8e9683b6e", 5, 55244},
		{"q4-local", 4, CoPartitioned, true, 11,
			"450f6d8cc7fa693fcd464929cd49085b1b822045b87043c206dccee8e9683b6e", 5, 36877},
		{"q10", 10, Random, false, 17,
			"05908e7a8e35a14c156733be7c24adbe7eb408ce8a329eaa9b5463b12f512c9a", 20, 62553},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db := Generate(0.01, 4, tc.layout, tc.seed)
			res, dr, err := Run(cluster.New(quiet(), 4, 4, 5), db, tc.q, testFactory(), tc.local)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("dag plan: %v", res.Err)
			}
			if res.Rows != tc.rows {
				t.Errorf("rows = %d, golden %d", res.Rows, tc.rows)
			}
			if sha := fmt.Sprintf("%x", sha256.Sum256(res.Result.Data)); sha != tc.sha {
				t.Errorf("result table sha256 = %s, golden %s", sha, tc.sha)
			}
			if res.Elapsed != tc.elapsed {
				t.Errorf("elapsed = %d ns, golden %d ns", res.Elapsed, tc.elapsed)
			}
			// The plan must actually have moved data over typed edges.
			var moved int64
			for _, e := range dr.Edges {
				moved += e.Rows
			}
			if moved == 0 {
				t.Fatal("no rows crossed any DAG edge")
			}

			c := cluster.NewWithOptions(quiet(), 4, 4, 5, cluster.SimOptions{ParallelLPs: 2})
			res, _, err = Run(c, db, tc.q, testFactory(), tc.local)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("lps=2: %v", res.Err)
			}
			if sha := fmt.Sprintf("%x", sha256.Sum256(res.Result.Data)); sha != tc.sha || res.Rows != tc.rows || res.Elapsed != tc.elapsed {
				t.Errorf("lps=2: %d rows, sha256 %s, elapsed %d ns; golden %d, %s, %d ns",
					res.Rows, sha, res.Elapsed, tc.rows, tc.sha, tc.elapsed)
			}
		})
	}
}

// gatherAll rewrites a Q3 or Q10 plan back to gathering every group: join2
// emits its whole aggregation and final re-aggregates the groups before its
// top-N, as the plans did before the top-N moved below the gather.
func gatherAll(g *dag.Graph) *dag.Graph {
	for _, s := range g.Stages() {
		build := s.Build
		switch s.Name {
		case "join2":
			s.Build = func(node int, in []engine.Operator) engine.Operator {
				return build(node, in).(*engine.TopN).In
			}
		case "final":
			s.Build = func(node int, in []engine.Operator) engine.Operator {
				top := build(node, in).(*engine.TopN)
				last := len(in[0].Schema().Cols) - 1
				keys := make([]int, last)
				for i := range keys {
					keys[i] = i
				}
				top.In = &engine.HashAgg{In: in[0], KeyCols: keys,
					Aggs: []engine.AggSpec{sumCol(last)}}
				return top
			}
		}
	}
	return g
}

// edgeRows returns the rows the named edge of a plan run carried.
func edgeRows(t *testing.T, r *dag.Result, id string) int64 {
	t.Helper()
	for _, e := range r.Edges {
		if e.Edge == id {
			return e.Rows
		}
	}
	t.Fatalf("no edge %s in the plan", id)
	return 0
}

// TestTopNBelowGather pins the plan rule on Q3 and Q10 at 16 nodes: the
// gather into final carries at most each node's top N, and the result
// bytes equal those of the plan that gathers every group.
func TestTopNBelowGather(t *testing.T) {
	const nodes = 16
	for _, tc := range []struct {
		q, n int
		plan func(*DB) *dag.Graph
	}{{3, 10, PlanQ3}, {10, 20, PlanQ10}} {
		t.Run(fmt.Sprintf("q%d", tc.q), func(t *testing.T) {
			db := Generate(0.005*nodes, nodes, Random, 23)
			run := func(g *dag.Graph) (*dag.Result, string) {
				r := g.Run(cluster.New(quiet(), nodes, 2, 5), testFactory())
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				return r, fmt.Sprintf("%x", sha256.Sum256(r.Result.Data))
			}
			r, sha := run(tc.plan(db))
			old, oldSHA := run(gatherAll(tc.plan(db)))
			got, all := edgeRows(t, r, "join2->final"), edgeRows(t, old, "join2->final")
			if got > int64(nodes*tc.n) {
				t.Errorf("join2->final carried %d rows, want <= %d nodes x top %d", got, nodes, tc.n)
			}
			if all <= got {
				t.Errorf("gathering every group carried %d rows, no more than the top-N plan's %d", all, got)
			}
			if sha != oldSHA || r.Rows != int64(tc.n) {
				t.Errorf("%d rows, sha256 %s; gathering every group gives %d rows, %s", r.Rows, sha, old.Rows, oldSHA)
			}
			t.Logf("join2->final: %d rows, %d when every group gathers", got, all)
		})
	}
}

// TestDagQ4EdgeTypes checks detection picks the paper's exchange patterns
// for Q4: broadcast for the semi-join build side, hash for dedup and
// gather in the distributed plan; a forward chain in the local plan.
func TestDagQ4EdgeTypes(t *testing.T) {
	db := Generate(0.005, 4, Random, 3)
	g := PlanQ4(db, false)
	types := []string{}
	for _, e := range g.Edges() {
		types = append(types, e.ID()+":"+e.Type.String())
	}
	want := []string{"orders->match:broadcast", "match->perprio:hash", "perprio->final:hash"}
	for i, w := range want {
		if types[i] != w {
			t.Errorf("edge %d = %s, want %s", i, types[i], w)
		}
	}

	local := PlanQ4(Generate(0.005, 4, CoPartitioned, 3), true)
	les := local.Edges()
	if les[0].Type.String() != "forward" {
		t.Errorf("local match->perprio = %s, want forward", les[0].Type)
	}
}

// TestTransportFactory pins the name vocabulary shared by cmd/tpchq and
// the examples.
func TestTransportFactory(t *testing.T) {
	for _, name := range []string{"mesq", "sesq", "memq", "semq",
		"memq-rd", "semq-rd", "memq-wr", "semq-wr", "mpi", "ipoib"} {
		f, err := TransportFactory(name, 4)
		if err != nil || f == nil {
			t.Errorf("TransportFactory(%q) = %v, %v", name, f, err)
		}
	}
	if _, err := TransportFactory("bogus", 4); err == nil {
		t.Error("unknown transport accepted")
	}
}

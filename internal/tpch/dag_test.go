package tpch

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"rshuffle/internal/cluster"
	"rshuffle/internal/sim"
)

// TestDagPlansGolden pins the declarative plans to golden values: for Q3,
// Q4 (both layouts), and Q10 on an identically seeded cluster, the result
// table bytes (same rows, same order, same float bits), the row count and
// the virtual response time must not move. The result constants were
// captured at the last commit that still carried the hand-wired
// RunQ3/RunQ4/RunQ10 drivers; the response times carry one route latency per
// fragment completion. Two logical partitions must reproduce all three.
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
			"cd9a8a583ad27dd0aa2db632d7a9e252f061506de3d9f9f6299e99d657317123", 10, 64750},
		{"q4", 4, Random, false, 11,
			"450f6d8cc7fa693fcd464929cd49085b1b822045b87043c206dccee8e9683b6e", 5, 55462},
		{"q4-local", 4, CoPartitioned, true, 11,
			"450f6d8cc7fa693fcd464929cd49085b1b822045b87043c206dccee8e9683b6e", 5, 36957},
		{"q10", 10, Random, false, 17,
			"1c2f0be29e4f4e54a14ec2b716b0faeea5fec56fd06879795b9e06208acbcceb", 20, 91314},
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

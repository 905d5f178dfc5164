package engine

import (
	"bytes"
	"crypto/sha256"
	"sort"
	"testing"

	"rshuffle/internal/bufpool"
	"rshuffle/internal/sim"
)

// poolOut returns, per size class, how many buffers tenants hold right now:
// every buffer the pool ever had to allocate, less the ones parked in it.
// A run that returns every row store it drew leaves it as it found it.
func poolOut() map[int]int64 {
	out := map[int]int64{}
	for _, c := range bufpool.Stats() {
		out[c.ClassBytes] = c.Misses - c.RetainedBytes/int64(c.ClassBytes)
	}
	return out
}

// checkPoolOut fails unless tenants hold what they held at the earlier
// poolOut reading.
func checkPoolOut(t *testing.T, what string, held map[int]int64) {
	t.Helper()
	for class, n := range poolOut() {
		if n != held[class] {
			t.Errorf("%s: %d buffers of the %d-byte class are out of the pool, %d were before it ran",
				what, n, class, held[class])
		}
	}
}

// poolGets returns how many requests class classBytes has served.
func poolGets(classBytes int) int64 {
	for _, c := range bufpool.Stats() {
		if c.ClassBytes == classBytes {
			return c.Hits + c.Misses
		}
	}
	return 0
}

// TestScanViewsAreNeverParked: a Scan batch is a view of the table's rows,
// and the batches of every operator above it come from the buffer pool and
// go back in Close. Put a Scan directly under each operator that can sit
// there, and under the sink itself, and run every plan twice: the second
// run draws what the first one parked. No table's bytes may change (the
// poisoning pool would scribble over a parked view at once, and a later
// tenant over one parked unnoticed), no Scan batch may claim its view came
// from the pool, and every store that was drawn must have come back.
func TestScanViewsAreNeverParked(t *testing.T) {
	fact, dim := makeInts(20_000, 500), makeInts(500, 500)
	digest := func() [sha256.Size]byte {
		return sha256.Sum256(append(append([]byte(nil), fact.Data...), dim.Data...))
	}
	var scans []*Scan
	scan := func(tbl *Table) *Scan {
		s := &Scan{T: tbl}
		scans = append(scans, s)
		return s
	}
	plans := map[string]func() Operator{
		"sink": func() Operator { return scan(fact) },
		"burn": func() Operator { return &Burn{In: scan(fact), PerBatch: 1} },
		"filter": func() Operator {
			return &Filter{In: scan(fact), Pred: func(b *Batch, i int) bool { return b.Int64(i, 1)%3 == 0 }}
		},
		"project": func() Operator {
			return &Project{In: scan(fact), Cols: []int{1, 0, 1}}
		},
		"join": func() Operator {
			return &HashJoin{Build: scan(dim), Probe: scan(fact)}
		},
		"semijoin": func() Operator {
			return &HashJoin{Build: scan(dim), Probe: scan(fact), Semi: true}
		},
		"agg":  func() Operator { return &HashAgg{In: scan(fact), KeyCols: []int{0}, Aggs: sumV} },
		"topn": func() Operator { return &TopN{In: scan(fact), N: 1500, Less: lessV} },
	}
	before, held := digest(), poolOut()
	for name, plan := range plans {
		var rows [2]int64
		for run := range rows {
			scans = scans[:0]
			rows[run] = runPlan(t, plan(), 3, false).Rows
			for _, s := range scans {
				for tid, b := range s.out {
					if b.pooled {
						t.Errorf("%s: scan batch of thread %d says its view came from the pool", name, tid)
					}
				}
			}
			if digest() != before {
				t.Fatalf("%s, run %d: a table's bytes changed", name, run+1)
			}
		}
		if rows[0] == 0 || rows[0] != rows[1] {
			t.Errorf("%s: %d rows, then %d", name, rows[0], rows[1])
		}
		checkPoolOut(t, name, held)
	}
}

// lessV orders makeInts rows by descending v.
func lessV(sch *Schema, a, b []byte) bool { return RowInt64(sch, a, 1) > RowInt64(sch, b, 1) }

// bulky emits, on every thread, one batch of each of the given sizes: a
// child whose batches outgrow the default vector size, as a Receive set to
// 32 KiB pulls is.
type bulky struct {
	sch   *Schema
	sizes []int
	out   []*Batch
	step  []int
}

func (s *bulky) Schema() *Schema { return s.sch }
func (s *bulky) Open(ctx *Ctx) {
	s.out, s.step = make([]*Batch, ctx.Threads), make([]int, ctx.Threads)
}
func (s *bulky) Next(p *sim.Proc, tid int) (*Batch, State) {
	if s.step[tid] == len(s.sizes) {
		return nil, Depleted
	}
	n := s.sizes[s.step[tid]]
	s.step[tid]++
	// Its own memory, not the pool's: the test counts what Project draws.
	b := &Batch{Sch: s.sch, Data: make([]byte, n*s.sch.Width()), N: n, cap: n}
	for i := 0; i < n; i++ {
		b.SetInt64(i, 0, int64(i))
		b.SetInt64(i, 1, int64(tid))
	}
	s.out[tid] = b
	return b, MoreData
}
func (s *bulky) Close(p *sim.Proc) {}

// TestProjectResizeReturnsBothStores: a Project whose child hands it more
// rows than its batch holds swaps the batch's store for a larger one. The
// small store goes back to the pool at the swap and the large one in Close.
func TestProjectResizeReturnsBothStores(t *testing.T) {
	const threads, small, large = 2, 8 << 10, 32 << 10 // 1024 and 3000 rows of one int64
	held, gotSmall, gotLarge := poolOut(), poolGets(small), poolGets(large)
	src := &bulky{sch: NewSchema(TInt64, TInt64), sizes: []int{512, 3000, 700}}
	sink := runPlan(t, &Project{In: src, Cols: []int{0}}, threads, true)
	if want := int64(threads * (512 + 3000 + 700)); sink.Rows != want {
		t.Fatalf("%d rows came through, want %d", sink.Rows, want)
	}
	for i := 0; i < sink.Result.N; i++ {
		if v := RowInt64(sink.Result.Sch, sink.Result.Row(i), 0); v < 0 || v >= 3000 {
			t.Fatalf("row %d holds %#x: not a value the child produced", i, v)
		}
	}
	if n := poolGets(small) - gotSmall; n != threads {
		t.Errorf("%d stores drawn from the %d-byte class, want one a thread", n, small)
	}
	if n := poolGets(large) - gotLarge; n != threads {
		t.Errorf("%d stores drawn from the %d-byte class, want one a thread", n, large)
	}
	checkPoolOut(t, "resizing project", held)
}

// TestOperatorStoresRoundTrip: the hash table, accumulators, join chains and
// sort state of HashAgg, HashJoin and TopN are stores drawn from the pool.
// Run every plan twice under the poisoning pool, so that the second run
// draws what the first one returned, scribbled over: each run must emit
// exactly what the map-based oracle emits (a stable sort of the input for
// TopN), and every store must be back in the pool once the plan has closed.
func TestOperatorStoresRoundTrip(t *testing.T) {
	const threads = 3
	w0, w8, w16 := keyShapes[0], keyShapes[1], keyShapes[2]
	aggOf := func(k keyShape, tbl *Table) [2]func() Operator {
		return [2]func() Operator{
			func() Operator { return &HashAgg{In: &Scan{T: tbl}, KeyCols: k.keys, Aggs: k.aggs()} },
			func() Operator { return &mapHashAgg{In: &Scan{T: tbl}, KeyCols: k.keys, Aggs: k.aggs()} },
		}
	}
	build, probe := makeInts(6000, 1500), makeInts(9000, 2000)
	joinOf := func(semi bool) [2]func() Operator {
		return [2]func() Operator{
			func() Operator { return &HashJoin{Build: &Scan{T: build}, Probe: &Scan{T: probe}, Semi: semi} },
			func() Operator { return &mapHashJoin{Build: &Scan{T: build}, Probe: &Scan{T: probe}, Semi: semi} },
		}
	}
	plans := map[string][2]func() Operator{ // the operator, then its oracle
		"agg/zero-width-key": aggOf(w0, w0.table(9000, 1)),
		"agg/one-column-key": aggOf(w8, w8.table(9000, 4096)),
		"agg/gathered-key":   aggOf(w16, w16.table(9000, 4096)),
		"join/inner":         joinOf(false),
		"join/semi":          joinOf(true),
	}
	want := map[string][]byte{}
	for name, plan := range plans {
		if want[name] = runPlan(t, plan[1](), threads, true).Result.Data; len(want[name]) == 0 {
			t.Fatalf("%s: the oracle emitted nothing", name)
		}
	}
	fact := makeInts(20_000, 500)
	want["topn"] = stableTopN(fact, 1500, lessV)
	plans["topn"] = [2]func() Operator{func() Operator { return &TopN{In: &Scan{T: fact}, N: 1500, Less: lessV} }}

	held := poolOut()
	for name, plan := range plans {
		for run := 1; run <= 2; run++ {
			got := runPlan(t, plan[0](), threads, true).Result.Data
			if !bytes.Equal(got, want[name]) {
				t.Errorf("%s, run %d: %d bytes emitted, differing from the oracle's %d", name, run, len(got), len(want[name]))
			}
		}
		checkPoolOut(t, name, held)
	}
}

// stableTopN is TopN's oracle: the first n rows of tbl under a stable sort.
func stableTopN(tbl *Table, n int, less func(sch *Schema, a, b []byte) bool) []byte {
	rows := make([][]byte, tbl.N)
	for i := range rows {
		rows[i] = tbl.Row(i)
	}
	sort.SliceStable(rows, func(i, j int) bool { return less(tbl.Sch, rows[i], rows[j]) })
	var out []byte
	for _, r := range rows[:min(n, len(rows))] {
		out = append(out, r...)
	}
	return out
}

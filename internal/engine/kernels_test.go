package engine

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"

	"rshuffle/internal/bufpool"
	"rshuffle/internal/sim"
)

// drain runs op to completion on the given number of worker threads and
// returns everything the differential tests compare: the emitted batches in
// the order the simulation produced them, each tagged with the thread that
// pulled it, and every thread's virtual busy time.
func drain(t testing.TB, op Operator, threads int) (log []byte, busy []sim.Duration) {
	t.Helper()
	s := sim.New(1)
	op.Open(testCtx(s, threads))
	busy = make([]sim.Duration, threads)
	for tid := 0; tid < threads; tid++ {
		tid := tid
		s.Spawn(fmt.Sprintf("w%d", tid), func(p *sim.Proc) {
			for {
				b, st := op.Next(p, tid)
				if b != nil && b.N > 0 {
					log = append(append(log, byte(tid)), b.Bytes()...)
				}
				if st == Depleted {
					busy[tid] = p.BusyTime()
					return
				}
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return log, busy
}

// sameRun fails unless two drains emitted the same rows in the same order on
// the same threads and charged every thread the same virtual time.
func sameRun(t *testing.T, gotLog, wantLog []byte, gotBusy, wantBusy []sim.Duration) {
	t.Helper()
	if !bytes.Equal(gotLog, wantLog) {
		t.Errorf("output differs from the map oracle's (%d vs %d bytes)", len(gotLog), len(wantLog))
	}
	if !slices.Equal(gotBusy, wantBusy) {
		t.Errorf("per-thread busy time %v, the map oracle charged %v", gotBusy, wantBusy)
	}
}

// keyShape is one group-by key layout: the schema's last two columns are an
// int64 and a float64 to aggregate, keys lists the key columns.
type keyShape struct {
	name string
	sch  *Schema
	keys []int
}

var keyShapes = []keyShape{
	{"w0", NewSchema(TInt64, TFloat64), nil},
	{"w8", NewSchema(TInt64, TInt64, TFloat64), []int{0}},
	{"w16", NewSchema(TInt64, TInt64, TInt64, TFloat64), []int{1, 0}},
	{"w24", NewSchema(TInt64, TInt64, TStr16, TInt64, TFloat64), []int{2, 0}},
	// TPC-H Q10's grouping: custkey, name, acctbal, phone, address, comment,
	// nation name of the customer projection (144 bytes), then the joined
	// (custkey, revenue).
	{"q10", NewSchema(TInt64, TStr32, TFloat64, TStr16, TStr32, TStr32, TStr16, TInt64, TFloat64),
		[]int{0, 1, 2, 3, 4, 5, 6}},
}

// mix64 is splitmix64's finalizer, a bijection: distinct inputs give distinct
// values with every byte position in play, negative int64s included.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// table builds rows rows over at most groups distinct keys. The first key
// column is injective in the group number; later ones repeat across groups
// (g%25, as a nation name does) so a key is told apart by some columns only.
func (k keyShape) table(rows, groups int) *Table {
	t := NewTable(k.sch).Grow(rows)
	w := NewWriter(t)
	nc := len(k.sch.Cols)
	for i := 0; i < rows; i++ {
		g := mix64(uint64(i)) % uint64(groups)
		for c := 0; c < nc-2; c++ {
			v := mix64(g<<8 | uint64(c))
			if pos := slices.Index(k.keys, c); pos > 0 {
				v = g % 25
			}
			switch k.sch.Cols[c] {
			case TInt64:
				w.SetInt64(c, int64(v))
			case TFloat64:
				w.SetFloat64(c, float64(v%100000)/7)
			default:
				w.SetStr(c, fmt.Sprintf("s%d", v))
			}
		}
		w.SetInt64(nc-2, int64(i))
		w.SetFloat64(nc-1, float64(i)*0.37+0.1) // fractional: a sum depends on its order
		w.Done()
	}
	return t
}

func (k keyShape) aggs() []AggSpec {
	nc := len(k.sch.Cols)
	return []AggSpec{
		{Kind: AggCount},
		{Kind: AggSum, Eval: func(b *Batch, i int) float64 { return b.Float64(i, nc-1) }},
		{Kind: AggSum, Eval: func(b *Batch, i int) float64 { return float64(b.Int64(i, nc-2)) }},
	}
}

// TestHashAggMatchesMapOracle: over every key shape, thread count and group
// count, HashAgg emits what the map-based operator it replaced emits — same
// rows (float sums to the bit), same order, same threads, same charges.
func TestHashAggMatchesMapOracle(t *testing.T) {
	const rows = 9000
	for _, k := range keyShapes {
		for _, groups := range []int{1, 7, 4096, rows} {
			tbl := k.table(rows, groups)
			for _, threads := range []int{1, 2, 5, 14} {
				t.Run(fmt.Sprintf("%s/groups=%d/threads=%d", k.name, groups, threads), func(t *testing.T) {
					log, busy := drain(t, &HashAgg{In: &Scan{T: tbl}, KeyCols: k.keys, Aggs: k.aggs()}, threads)
					wantLog, wantBusy := drain(t, &mapHashAgg{In: &Scan{T: tbl}, KeyCols: k.keys, Aggs: k.aggs()}, threads)
					sameRun(t, log, wantLog, busy, wantBusy)
					if len(log) == 0 {
						t.Error("no groups emitted")
					}
				})
			}
		}
	}
}

// TestHashAggEmptyInput: no rows, no groups — also for the zero-width key,
// whose single group exists only once a row has arrived.
func TestHashAggEmptyInput(t *testing.T) {
	for _, k := range keyShapes[:2] {
		log, _ := drain(t, &HashAgg{In: &Scan{T: NewTable(k.sch)}, KeyCols: k.keys, Aggs: k.aggs()}, 3)
		if len(log) != 0 {
			t.Errorf("%s: %d bytes emitted for an empty input", k.name, len(log))
		}
	}
}

// TestHashJoinMatchesMapOracle: inner and semi joins against the map-based
// operator, with build chains longer than an output batch (so the probe
// carry resumes inside a chain), probe keys that miss, and an empty build.
func TestHashJoinMatchesMapOracle(t *testing.T) {
	cases := []struct {
		name                               string
		buildN, buildMod, probeN, probeMod int
	}{
		{"long-chains", 5000, 3, 200, 5}, // ~1667 build rows a key; probe keys 3 and 4 miss
		{"unique-build", 5000, 5000, 20000, 10000},
		{"short-chains", 6000, 1500, 6000, 2000},
		{"empty-build", 0, 1, 3000, 10},
	}
	for _, c := range cases {
		build, probe := makeInts(c.buildN, c.buildMod), makeInts(c.probeN, c.probeMod)
		for _, semi := range []bool{false, true} {
			for _, threads := range []int{1, 3, 14} {
				t.Run(fmt.Sprintf("%s/semi=%v/threads=%d", c.name, semi, threads), func(t *testing.T) {
					log, busy := drain(t, &HashJoin{Build: &Scan{T: build}, Probe: &Scan{T: probe}, Semi: semi}, threads)
					wantLog, wantBusy := drain(t, &mapHashJoin{Build: &Scan{T: build}, Probe: &Scan{T: probe}, Semi: semi}, threads)
					sameRun(t, log, wantLog, busy, wantBusy)
					if (len(log) == 0) != (c.buildN == 0) {
						t.Errorf("%d bytes emitted", len(log))
					}
				})
			}
		}
	}
}

// TestTopNStableOnTies: rows that Less cannot order come out in arrival
// order, as a stable sort over the rows themselves left them.
func TestTopNStableOnTies(t *testing.T) {
	tbl := makeInts(5000, 3) // k = i%3, v = i
	sink := runPlan(t, &TopN{In: &Scan{T: tbl}, N: 2500,
		Less: func(sch *Schema, a, b []byte) bool { return RowInt64(sch, a, 0) < RowInt64(sch, b, 0) },
	}, 1, true)
	if sink.Rows != 2500 {
		t.Fatalf("rows = %d, want 2500", sink.Rows)
	}
	for i := 0; i < sink.Result.N; i++ {
		k, v := i/1667, i%1667*3+i/1667 // 1667 rows have k = 0, then k = 1 follows
		row := sink.Result.Row(i)
		if RowInt64(tbl.Sch, row, 0) != int64(k) || RowInt64(tbl.Sch, row, 1) != int64(v) {
			t.Fatalf("row %d = (%d, %d), want (%d, %d)", i,
				RowInt64(tbl.Sch, row, 0), RowInt64(tbl.Sch, row, 1), k, v)
		}
	}
}

// TestHashAggAllocations: a 100k-row, 25k-group aggregation allocates
// nothing per row or per group (the map-based operator took more than 200k
// heap objects here), and once a drain has filled the buffer pool, nothing
// for its tables either: their index, key arena and accumulators are drawn
// from the pool and go back at the merge and in Close.
func TestHashAggAllocations(t *testing.T) {
	tbl := makeInts(100_000, 25_000)
	drain := func() { runPlan(t, &HashAgg{In: &Scan{T: tbl}, KeyCols: []int{0}, Aggs: sumV}, 4, false) }
	allocs := testing.AllocsPerRun(3, drain)
	if allocs >= 1000 {
		t.Errorf("HashAgg drain took %.0f heap objects, want < 1000", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	drain()
	runtime.ReadMemStats(&after)
	const bound = 256 << 10
	if b := after.TotalAlloc - before.TotalAlloc; b >= bound {
		t.Errorf("a warm HashAgg drain allocated %d bytes, want < %d", b, bound)
	}
	t.Logf("%.0f heap objects, %d bytes a warm drain", allocs, after.TotalAlloc-before.TotalAlloc)
}

// FuzzGroupTable drives a groupTable and a map[string]int with the same
// lookups and inserts: same group ids in first-seen order, same membership,
// keys stored intact across index doublings, and sorted() in sort.Strings'
// order. A second table then replays the same operations on the stores the
// first one released, which the poisoning pool has scribbled over: an index
// not cleared after its draw, or a key read before it was written, fails.
func FuzzGroupTable(f *testing.F) {
	// Seeds with many distinct keys take a 16-slot index through several
	// doublings; they are kept short because the fuzzer minimises every
	// interesting input it derives from them.
	noise := make([]byte, 640)
	for i := range noise {
		noise[i] = byte(mix64(uint64(i)) >> 13)
	}
	f.Add(uint8(0), []byte("abc"))
	f.Add(uint8(1), noise[:300])
	f.Add(uint8(2), noise[:400])
	f.Add(uint8(8), noise)
	f.Add(uint8(24), bytes.Repeat([]byte{0, 0, 0, 1, 0, 0, 0, 0}, 12))
	f.Fuzz(func(t *testing.T, width uint8, data []byte) {
		defer bufpool.PoisonForTest()()
		kw := int(width % 40)
		ops := len(data)
		if kw > 0 {
			ops /= kw
		}
		replay := func(leg string, tab *groupTable) {
			model := map[string]int{}
			for i := 0; i < ops; i++ {
				key := data[i*kw : (i+1)*kw]
				want, seen := model[string(key)]
				if !seen {
					want = -1
				}
				if g := tab.lookup(key); g != want {
					t.Fatalf("%s, op %d: lookup = %d, want %d", leg, i, g, want)
				}
				g, added := tab.insert(key)
				if !seen {
					want = len(model)
					model[string(key)] = want
				}
				if g != want || added == seen {
					t.Fatalf("%s, op %d: insert = (%d, %v), want (%d, %v)", leg, i, g, added, want, !seen)
				}
			}
			if tab.n != len(model) {
				t.Fatalf("%s: %d groups, want %d", leg, tab.n, len(model))
			}
			keys := make([]string, 0, len(model))
			for k, g := range model {
				if string(tab.key(g)) != k {
					t.Fatalf("%s: group %d holds %q, want %q", leg, g, tab.key(g), k)
				}
				keys = append(keys, k)
			}
			sort.Strings(keys)
			order := tab.sorted()
			defer order.release()
			for i := range keys {
				if g := getInt32(order.b, i); string(tab.key(int(g))) != keys[i] {
					t.Fatalf("%s: sorted()[%d] is key %q, want %q", leg, i, tab.key(int(g)), keys[i])
				}
			}
		}
		first := groupTable{kw: kw}
		replay("first table", &first)
		first.release()
		pooled := groupTable{kw: kw}
		replay("second table", &pooled)
		pooled.release()
	})
}

// The HashAgg series of `make bench`: few groups (every row a hit in a tiny
// table), many groups (dag8_rc's partial aggregation: 100k rows over 25k
// keys, the table doubling as it fills) and Q10's wide gathered key.

func benchHashAgg(b *testing.B, tbl *Table, keys []int, aggs []AggSpec) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPlan(b, &HashAgg{In: &Scan{T: tbl}, KeyCols: keys, Aggs: aggs}, 4, false)
	}
}

var sumV = []AggSpec{{Kind: AggSum, Eval: func(b *Batch, i int) float64 { return float64(b.Int64(i, 1)) }}}

func BenchmarkHashAggFewGroups(b *testing.B) {
	benchHashAgg(b, makeInts(100_000, 97), []int{0}, sumV)
}

func BenchmarkHashAggManyGroups(b *testing.B) {
	benchHashAgg(b, makeInts(100_000, 25_000), []int{0}, sumV)
}

func BenchmarkHashAggWideKey(b *testing.B) {
	q10 := keyShapes[len(keyShapes)-1]
	benchHashAgg(b, q10.table(100_000, 25_000), q10.keys, q10.aggs())
}

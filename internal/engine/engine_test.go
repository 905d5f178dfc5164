package engine

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
)

func testCtx(s *sim.Simulation, threads int) *Ctx {
	p := fabric.EDR()
	return &Ctx{S: s, Prof: &p, Threads: threads}
}

// makeInts builds a table of (k int64, v int64) rows with k = i%mod, v = i.
func makeInts(n, mod int) *Table {
	t := NewTable(NewSchema(TInt64, TInt64))
	w := NewWriter(t)
	for i := 0; i < n; i++ {
		w.SetInt64(0, int64(i%mod))
		w.SetInt64(1, int64(i))
		w.Done()
	}
	return t
}

// runPlan drains op with the given thread count and returns the sink.
func runPlan(t testing.TB, op Operator, threads int, keep bool) *Sink {
	t.Helper()
	s := sim.New(1)
	ctx := testCtx(s, threads)
	sink := &Sink{In: op, Keep: keep}
	sink.Run(ctx, "test", nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return sink
}

func TestSchemaLayout(t *testing.T) {
	s := NewSchema(TInt64, TStr16, TFloat64, TStr32)
	if s.Width() != 8+16+8+32 {
		t.Fatalf("width = %d", s.Width())
	}
	if s.Offset(2) != 24 {
		t.Fatalf("offset(2) = %d", s.Offset(2))
	}
	pr := s.Project(2, 0)
	if pr.Width() != 16 || pr.Cols[0] != TFloat64 || pr.Cols[1] != TInt64 {
		t.Fatalf("projected schema wrong: %+v", pr)
	}
	cc := s.Concat(NewSchema(TInt64))
	if cc.Width() != s.Width()+8 {
		t.Fatalf("concat width = %d", cc.Width())
	}
}

func TestBatchAccessors(t *testing.T) {
	sch := NewSchema(TInt64, TFloat64, TStr16)
	b := NewBatch(sch, 4)
	b.N = 2
	b.SetInt64(1, 0, -42)
	b.SetFloat64(1, 1, 3.5)
	b.SetStr(1, 2, "shuffle")
	if b.Int64(1, 0) != -42 || b.Float64(1, 1) != 3.5 || b.Str(1, 2) != "shuffle" {
		t.Fatalf("roundtrip failed: %d %f %q", b.Int64(1, 0), b.Float64(1, 1), b.Str(1, 2))
	}
	// Overlong strings truncate to the column width.
	b.SetStr(0, 2, "0123456789abcdefXYZ")
	if b.Str(0, 2) != "0123456789abcdef" {
		t.Fatalf("truncation: %q", b.Str(0, 2))
	}
}

func TestScanAllRowsAllThreads(t *testing.T) {
	for _, threads := range []int{1, 3, 8} {
		tbl := makeInts(10_000, 97)
		sink := runPlan(t, &Scan{T: tbl}, threads, false)
		if sink.Rows != 10_000 {
			t.Fatalf("threads=%d: rows = %d, want 10000", threads, sink.Rows)
		}
	}
}

func TestScanPasses(t *testing.T) {
	tbl := makeInts(1000, 10)
	sink := runPlan(t, &Scan{T: tbl, Passes: 3}, 4, false)
	if sink.Rows != 3000 {
		t.Fatalf("rows = %d, want 3000", sink.Rows)
	}
}

func TestScanChargesTime(t *testing.T) {
	s := sim.New(1)
	ctx := testCtx(s, 2)
	sink := &Sink{In: &Scan{T: makeInts(50_000, 7)}}
	sink.Run(ctx, "t", nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() == 0 {
		t.Fatal("scan consumed no virtual time")
	}
}

func TestFilter(t *testing.T) {
	tbl := makeInts(10_000, 10)
	op := &Filter{
		In:   &Scan{T: tbl},
		Pred: func(b *Batch, i int) bool { return b.Int64(i, 0) < 3 },
	}
	sink := runPlan(t, op, 4, false)
	if sink.Rows != 3000 {
		t.Fatalf("rows = %d, want 3000", sink.Rows)
	}
}

func TestProject(t *testing.T) {
	tbl := NewTable(NewSchema(TInt64, TStr16, TInt64))
	w := NewWriter(tbl)
	for i := 0; i < 100; i++ {
		w.SetInt64(0, int64(i))
		w.SetStr(1, fmt.Sprintf("row%d", i))
		w.SetInt64(2, int64(i*2))
		w.Done()
	}
	op := &Project{In: &Scan{T: tbl}, Cols: []int{2, 0}}
	sink := runPlan(t, op, 2, true)
	if sink.Rows != 100 {
		t.Fatalf("rows = %d", sink.Rows)
	}
	if sink.Result.Sch.Width() != 16 {
		t.Fatalf("projected width = %d, want 16", sink.Result.Sch.Width())
	}
	// Verify one row: col0 = 2*orig, col1 = orig.
	seen := map[int64]int64{}
	for i := 0; i < sink.Result.N; i++ {
		row := sink.Result.Row(i)
		sch := sink.Result.Sch
		seen[RowInt64(sch, row, 1)] = RowInt64(sch, row, 0)
	}
	if seen[7] != 14 {
		t.Fatalf("projection scrambled columns: %v", seen[7])
	}
}

func TestHashJoinInner(t *testing.T) {
	build := makeInts(100, 100) // keys 0..99 unique
	probe := makeInts(1000, 50) // keys 0..49, 20 rows each
	op := &HashJoin{
		Build: &Scan{T: build}, Probe: &Scan{T: probe},
		BuildKey: 0, ProbeKey: 0,
	}
	sink := runPlan(t, op, 4, true)
	// Each of the 1000 probe rows with key<50 matches exactly one build row.
	if sink.Rows != 1000 {
		t.Fatalf("join rows = %d, want 1000", sink.Rows)
	}
	// Check join columns line up: build(k,v) ++ probe(k,v) with equal keys.
	sch := sink.Result.Sch
	for i := 0; i < sink.Result.N; i++ {
		row := sink.Result.Row(i)
		if RowInt64(sch, row, 0) != RowInt64(sch, row, 2) {
			t.Fatalf("row %d: keys differ: %d vs %d", i,
				RowInt64(sch, row, 0), RowInt64(sch, row, 2))
		}
	}
}

func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	build := makeInts(20, 5)  // 5 keys, 4 build rows each
	probe := makeInts(10, 10) // keys 0..9; only 0..4 match
	op := &HashJoin{Build: &Scan{T: build}, Probe: &Scan{T: probe},
		BuildKey: 0, ProbeKey: 0}
	sink := runPlan(t, op, 2, false)
	if sink.Rows != 5*4 {
		t.Fatalf("join rows = %d, want 20", sink.Rows)
	}
}

func TestHashJoinCarryOverflow(t *testing.T) {
	// One build key with a huge chain times many matching probe rows forces
	// output-batch overflow and exercises the carry path.
	build := makeInts(3000, 1) // all key 0
	probe := makeInts(5, 1)    // all key 0
	op := &HashJoin{Build: &Scan{T: build}, Probe: &Scan{T: probe},
		BuildKey: 0, ProbeKey: 0}
	sink := runPlan(t, op, 2, false)
	if sink.Rows != 15000 {
		t.Fatalf("join rows = %d, want 15000", sink.Rows)
	}
}

func TestHashAggSumAndCount(t *testing.T) {
	tbl := makeInts(1000, 4) // keys 0..3, 250 rows each
	op := &HashAgg{
		In:      &Scan{T: tbl},
		KeyCols: []int{0},
		Aggs: []AggSpec{
			{Kind: AggCount},
			{Kind: AggSum, Eval: func(b *Batch, i int) float64 { return float64(b.Int64(i, 1)) }},
		},
	}
	sink := runPlan(t, op, 4, true)
	if sink.Rows != 4 {
		t.Fatalf("groups = %d, want 4", sink.Rows)
	}
	res := sink.Result
	sch := res.Sch
	for i := 0; i < res.N; i++ {
		row := res.Row(i)
		k := RowInt64(sch, row, 0)
		cnt := float64frombits(uint64(RowInt64(sch, row, 1)))
		sum := float64frombits(uint64(RowInt64(sch, row, 2)))
		if cnt != 250 {
			t.Fatalf("key %d count = %v, want 250", k, cnt)
		}
		// Sum over i in 0..999 with i%4==k of i: 250 terms, arithmetic series.
		want := float64(250*int(k)) + 4*float64(249*250/2)
		if sum != want {
			t.Fatalf("key %d sum = %v, want %v", k, sum, want)
		}
	}
}

func TestTopN(t *testing.T) {
	tbl := makeInts(5000, 5000)
	op := &TopN{
		In: &Scan{T: tbl},
		N:  10,
		Less: func(sch *Schema, a, b []byte) bool {
			return RowInt64(sch, a, 1) > RowInt64(sch, b, 1) // descending v
		},
	}
	sink := runPlan(t, op, 4, true)
	if sink.Rows != 10 {
		t.Fatalf("rows = %d, want 10", sink.Rows)
	}
	for i := 0; i < sink.Result.N; i++ {
		v := RowInt64(sink.Result.Sch, sink.Result.Row(i), 1)
		if v != int64(4999-i) {
			t.Fatalf("row %d = %d, want %d", i, v, 4999-i)
		}
	}
}

func TestBurnAddsTime(t *testing.T) {
	elapsed := func(per sim.Duration) sim.Time {
		s := sim.New(1)
		ctx := testCtx(s, 2)
		sink := &Sink{In: &Burn{In: &Scan{T: makeInts(10_000, 3)}, PerBatch: per}}
		sink.Run(ctx, "t", nil)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now()
	}
	fast, slow := elapsed(0), elapsed(1000_000)
	if slow <= fast {
		t.Fatalf("burn did not add time: %v vs %v", fast, slow)
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	s := sim.New(1)
	b := NewBarrier(s, "b", 3)
	var releases []sim.Time
	lastCount := 0
	for i := 0; i < 3; i++ {
		d := sim.Duration((i + 1) * 100)
		s.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			p.Sleep(d)
			if b.Wait(p) {
				lastCount++
			}
			releases = append(releases, p.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if lastCount != 1 {
		t.Fatalf("barrier designated %d last-arrivers, want 1", lastCount)
	}
	for _, r := range releases {
		if r != 300 {
			t.Fatalf("release at %v, want 300 (when the slowest arrived)", r)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	s := sim.New(1)
	b := NewBarrier(s, "b", 2)
	phase := 0
	for i := 0; i < 2; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			b.Wait(p)
			if b.Wait(p) {
				phase++
			}
			b.Wait(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if phase != 1 {
		t.Fatalf("phase = %d", phase)
	}
}

// Property: Filter(pred) ∪ Filter(!pred) = identity on row counts.
func TestFilterPartitionProperty(t *testing.T) {
	f := func(n uint16, mod uint8, cut uint8) bool {
		rows := int(n%2000) + 1
		m := int(mod)%50 + 1
		c := int64(cut) % int64(m+1)
		count := func(pred func(b *Batch, i int) bool) int64 {
			tbl := makeInts(rows, m)
			return runPlan(t, &Filter{In: &Scan{T: tbl}, Pred: pred}, 3, false).Rows
		}
		lo := count(func(b *Batch, i int) bool { return b.Int64(i, 0) < c })
		hi := count(func(b *Batch, i int) bool { return b.Int64(i, 0) >= c })
		return lo+hi == int64(rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: join cardinality equals the sum over keys of |build_k|×|probe_k|.
func TestJoinCardinalityProperty(t *testing.T) {
	f := func(bn, pn uint16, mod uint8) bool {
		b := int(bn)%500 + 1
		pr := int(pn)%500 + 1
		m := int(mod)%20 + 1
		got := runPlan(t, &HashJoin{
			Build: &Scan{T: makeInts(b, m)}, Probe: &Scan{T: makeInts(pr, m)},
			BuildKey: 0, ProbeKey: 0,
		}, 2, false).Rows
		var want int64
		for k := 0; k < m; k++ {
			bk := int64(b/m) + b2i(k < b%m)
			pk := int64(pr/m) + b2i(k < pr%m)
			want += bk * pk
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func BenchmarkScan(b *testing.B) {
	tbl := makeInts(100_000, 97)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPlan(b, &Scan{T: tbl}, 4, false)
	}
}

func BenchmarkHashJoin(b *testing.B) {
	build := makeInts(10_000, 10_000)
	probe := makeInts(50_000, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPlan(b, &HashJoin{Build: &Scan{T: build}, Probe: &Scan{T: probe},
			BuildKey: 0, ProbeKey: 0}, 4, false)
	}
}

func TestHashJoinSemi(t *testing.T) {
	// Build: 10 orders (unique keys 0..9). Probe: 40 lineitems over keys
	// 0..4 (8 each). Semi join must emit each matched build row exactly
	// once, with the build schema only.
	build := makeInts(10, 10)
	probe := makeInts(40, 5)
	op := &HashJoin{Build: &Scan{T: build}, Probe: &Scan{T: probe},
		BuildKey: 0, ProbeKey: 0, Semi: true}
	sink := runPlan(t, op, 3, true)
	if sink.Rows != 5 {
		t.Fatalf("semi join rows = %d, want 5", sink.Rows)
	}
	if sink.Result.Sch.Width() != build.Sch.Width() {
		t.Fatalf("semi join schema width = %d, want build width %d",
			sink.Result.Sch.Width(), build.Sch.Width())
	}
	seen := map[int64]bool{}
	for i := 0; i < sink.Result.N; i++ {
		k := RowInt64(sink.Result.Sch, sink.Result.Row(i), 0)
		if seen[k] {
			t.Fatalf("key %d emitted twice", k)
		}
		seen[k] = true
		if k >= 5 {
			t.Fatalf("unmatched key %d emitted", k)
		}
	}
}

func TestHashJoinSemiOverflow(t *testing.T) {
	// More matched build rows than one output batch forces the carry path
	// through the semi bookkeeping.
	build := makeInts(5000, 5000)
	probe := makeInts(5000, 5000)
	op := &HashJoin{Build: &Scan{T: build}, Probe: &Scan{T: probe},
		BuildKey: 0, ProbeKey: 0, Semi: true}
	sink := runPlan(t, op, 2, false)
	if sink.Rows != 5000 {
		t.Fatalf("semi join rows = %d, want 5000", sink.Rows)
	}
}

func TestBurnCountsBatches(t *testing.T) {
	s := sim.New(1)
	ctx := testCtx(s, 2)
	burn := &Burn{In: &Scan{T: makeInts(10_000, 3)}, PerBatch: 100}
	sink := &Sink{In: burn}
	sink.Run(ctx, "t", nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := int64((10_000 + DefaultBatchTuples - 1) / DefaultBatchTuples)
	if burn.Batches != want {
		t.Fatalf("burn batches = %d, want %d", burn.Batches, want)
	}
}

func TestFilterCarryOverflow(t *testing.T) {
	// An all-pass predicate over many consecutive batches exercises the
	// filter's carry path (output fills mid-input).
	tbl := makeInts(50_000, 7)
	op := &Filter{In: &Scan{T: tbl}, Pred: func(b *Batch, i int) bool { return true }}
	sink := runPlan(t, op, 2, false)
	if sink.Rows != 50_000 {
		t.Fatalf("rows = %d, want 50000", sink.Rows)
	}
}

// TestTableGrow: a presized table holds the same rows as one grown by
// Append's doubling, and filling it to the reserved size reallocates nothing.
func TestTableGrow(t *testing.T) {
	sch := NewSchema(TInt64, TInt64)
	plain, sized := NewTable(sch), NewTable(sch).Grow(1000)
	base := &sized.Data[:1][0]
	for _, tab := range []*Table{plain, sized} {
		w := NewWriter(tab)
		for i := 0; i < 1000; i++ {
			w.SetInt64(0, int64(i*7))
			w.SetInt64(1, int64(i))
			w.Done()
		}
	}
	if sized.N != plain.N || string(sized.Data) != string(plain.Data) {
		t.Fatal("presized table differs from an appended one")
	}
	if &sized.Data[0] != base || cap(sized.Data) != 1000*sch.Width() {
		t.Fatalf("presized table reallocated: cap %d, want %d", cap(sized.Data), 1000*sch.Width())
	}
	if sized.Grow(10); cap(sized.Data) < 1010*sch.Width() || sized.N != 1000 || string(sized.Data) != string(plain.Data) {
		t.Fatal("Grow on a full table lost rows or reserved too little")
	}
}

// TestTableAppendDoubles: a table built a row at a time allocates about
// twice its final size, not the five to six times append's 1.25x steps of
// a large slice cost.
func TestTableAppendDoubles(t *testing.T) {
	const rows = 1 << 20
	sch := NewSchema(TInt64, TInt64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := NewTable(sch)
	w := NewWriter(tab)
	for i := 0; i < rows; i++ {
		w.SetInt64(0, int64(i))
		w.Done()
	}
	runtime.ReadMemStats(&after)
	if tab.N != rows || RowInt64(sch, tab.Row(rows-1), 0) != rows-1 {
		t.Fatalf("table holds %d rows", tab.N)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2.1*float64(tab.Bytes())); got > limit {
		t.Fatalf("building %d bytes of rows allocated %d bytes, want <= %d (2.1x)", tab.Bytes(), got, limit)
	}
}

// SetInt64 writes an int64 column.
func (b *Batch) SetInt64(row, col int, v int64) {
	off := row*b.Sch.Width() + b.Sch.Offset(col)
	binary.LittleEndian.PutUint64(b.rows()[off:], uint64(v))
}

// SetStr writes a fixed string column, truncating or zero-padding.
func (b *Batch) SetStr(row, col int, v string) {
	off := row*b.Sch.Width() + b.Sch.Offset(col)
	n := b.Sch.Cols[col].Size()
	dst := b.rows()[off : off+n]
	for i := range dst {
		dst[i] = 0
	}
	copy(dst, v)
}

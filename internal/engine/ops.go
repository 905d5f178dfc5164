package engine

import (
	"sort"

	"rshuffle/internal/sim"
)

// Filter passes through rows for which Pred returns true.
type Filter struct {
	In   Operator
	Pred func(b *Batch, i int) bool

	ctx   *Ctx
	out   []*Batch
	carry []filterCarry
}

// filterCarry resumes an input batch whose survivors overflowed the output.
type filterCarry struct {
	in  *Batch
	st  State
	row int
}

// Schema implements Operator.
func (f *Filter) Schema() *Schema { return f.In.Schema() }

// Open implements Operator.
func (f *Filter) Open(ctx *Ctx) {
	f.In.Open(ctx)
	f.ctx = ctx
	f.out = threadBatches(f.In.Schema(), DefaultBatchTuples, ctx.Threads)
	f.carry = make([]filterCarry, ctx.Threads)
}

// Next implements Operator.
func (f *Filter) Next(p *sim.Proc, tid int) (*Batch, State) {
	out := f.out[tid]
	out.Reset()
	c := &f.carry[tid]
	for {
		if c.in == nil {
			in, st := f.In.Next(p, tid)
			c.in, c.st, c.row = in, st, 0
			if in != nil {
				f.ctx.ChargeTuples(p, in.N)
			}
		}
		if c.in != nil {
			for ; c.row < c.in.N; c.row++ {
				if !f.Pred(c.in, c.row) {
					continue
				}
				if out.Full() {
					return out, MoreData
				}
				out.AppendRow(c.in.Row(c.row))
			}
		}
		st := c.st
		c.in = nil
		if st == Depleted {
			return out, Depleted
		}
		if out.N >= out.Cap()/2 {
			return out, MoreData
		}
	}
}

// Close implements Operator.
func (f *Filter) Close(p *sim.Proc) {
	f.In.Close(p)
	releaseBatches(f.out)
}

// Project keeps only the selected columns, in the given order.
type Project struct {
	In   Operator
	Cols []int

	ctx *Ctx
	sch *Schema
	out []*Batch
}

// Schema implements Operator; it is valid before Open.
func (pr *Project) Schema() *Schema {
	if pr.sch == nil {
		pr.sch = pr.In.Schema().Project(pr.Cols...)
	}
	return pr.sch
}

// Open implements Operator.
func (pr *Project) Open(ctx *Ctx) {
	pr.In.Open(ctx)
	pr.ctx = ctx
	pr.sch = nil
	pr.sch = pr.Schema()
	pr.out = threadBatches(pr.sch, DefaultBatchTuples, ctx.Threads)
}

// Next implements Operator.
func (pr *Project) Next(p *sim.Proc, tid int) (*Batch, State) {
	in, st := pr.In.Next(p, tid)
	out := pr.out[tid]
	out.Reset()
	if in != nil && in.N > out.Cap() {
		// The child produces larger batches than the default vector size
		// (e.g. a Receive configured for 32 KiB pulls); resize once. The
		// parent is done with the rows it was last handed (Next's contract),
		// so the old store goes back now.
		out.Release()
		out.cap = in.N
	}
	if in != nil {
		insch := pr.In.Schema()
		pr.ctx.ChargeCopy(p, in.N*pr.sch.Width())
		for i := 0; i < in.N; i++ {
			row := out.slot()
			src := in.Row(i)
			off := 0
			for _, c := range pr.Cols {
				n := insch.Cols[c].Size()
				copy(row[off:off+n], src[insch.Offset(c):])
				off += n
			}
			out.N++
		}
	}
	return out, st
}

// Close implements Operator.
func (pr *Project) Close(p *sim.Proc) {
	pr.In.Close(p)
	releaseBatches(pr.out)
}

// HashJoin is an in-memory equi-join: it drains Build into a shared hash
// table (all threads cooperate, with a barrier), then streams Probe,
// emitting Build-row ++ Probe-row for each match. With Semi set it becomes
// a right semi-join: each build row is emitted alone, at most once, upon
// its first probe match (EXISTS semantics).
type HashJoin struct {
	Build, Probe       Operator
	BuildKey, ProbeKey int
	Semi               bool

	ctx *Ctx
	sch *Schema
	// ht groups build rows by the 8 bytes of their key column. A group's rows
	// are a chain through next from head[gid] to tail[gid], in insertion
	// order; noRow ends it. Chains, rows and flags are pool stores, returned
	// in Close.
	ht         groupTable
	head, tail store // int32 per group
	next       store // int32 per build row
	rows       store // build-side row store
	matched    store // Semi: nonzero for build rows already emitted
	built      bool
	barrier    *Barrier
	out        []*Batch
	carry      []probeCarry
	mu         *sim.Mutex
}

// noRow ends a build-row chain.
const noRow = -1

// probeCarry resumes a probe batch whose matches overflowed the output.
type probeCarry struct {
	in      *Batch
	st      State
	row     int   // probe row under examination
	match   int32 // next build row of that row's chain, once chained
	chained bool  // row's chain has been looked up
}

// Schema implements Operator; it is valid before Open.
func (h *HashJoin) Schema() *Schema {
	if h.sch == nil {
		if h.Semi {
			h.sch = h.Build.Schema()
		} else {
			h.sch = h.Build.Schema().Concat(h.Probe.Schema())
		}
	}
	return h.sch
}

// Open implements Operator.
func (h *HashJoin) Open(ctx *Ctx) {
	h.Build.Open(ctx)
	h.Probe.Open(ctx)
	h.ctx = ctx
	h.sch = h.Schema()
	h.ht = groupTable{kw: 8}
	h.barrier = NewBarrier(ctx.S, "hashjoin", ctx.Threads)
	h.mu = ctx.S.NewMutex("hashjoin-build")
	h.out = threadBatches(h.sch, DefaultBatchTuples, ctx.Threads)
	h.carry = make([]probeCarry, ctx.Threads)
}

// joinKey returns the 8 bytes of an int64 key column within a raw row.
func joinKey(sch *Schema, row []byte, col int) []byte {
	off := sch.Offset(col)
	return row[off : off+8]
}

// buildPhase drains the build child on this thread, inserting into the
// shared table under a lock (the contention is part of the model).
func (h *HashJoin) buildPhase(p *sim.Proc, tid int) {
	bsch := h.Build.Schema()
	bw := bsch.Width()
	for {
		in, st := h.Build.Next(p, tid)
		if in != nil && in.N > 0 {
			h.ctx.ChargeHash(p, in.N)
			h.ctx.ChargeCopy(p, in.N*bw)
			h.mu.Lock(p)
			base := len(h.rows.b) / bw
			copy(h.rows.grow(in.N*bw), in.Bytes())
			for i := 0; i < in.N; i++ {
				r := int32(base + i)
				g, added := h.ht.insert(joinKey(bsch, in.Row(i), h.BuildKey))
				if added {
					h.head.appendInt32(r)
					h.tail.appendInt32(r)
				} else {
					putInt32(h.next.b, int(getInt32(h.tail.b, g)), r)
					putInt32(h.tail.b, g, r)
				}
				h.next.appendInt32(noRow)
			}
			h.mu.Unlock(p)
		}
		if st == Depleted {
			break
		}
	}
	if h.barrier.Wait(p) && h.Semi {
		// The last thread in sets the flags up before any other resumes.
		clear(h.matched.reset(len(h.rows.b) / bw))
	}
	h.built = true
}

// Next implements Operator.
func (h *HashJoin) Next(p *sim.Proc, tid int) (*Batch, State) {
	if !h.built {
		h.buildPhase(p, tid)
	}
	bw := h.Build.Schema().Width()
	psch := h.Probe.Schema()
	out := h.out[tid]
	out.Reset()
	c := &h.carry[tid]
	for {
		if c.in == nil {
			in, st := h.Probe.Next(p, tid)
			c.in, c.st, c.row, c.chained = in, st, 0, false
			if in != nil {
				h.ctx.ChargeHash(p, in.N)
			}
		}
		matched := 0
		if c.in != nil {
			for ; c.row < c.in.N; c.row, c.chained = c.row+1, false {
				if !c.chained {
					c.match, c.chained = noRow, true
					if g := h.ht.lookup(joinKey(psch, c.in.Row(c.row), h.ProbeKey)); g >= 0 {
						c.match = getInt32(h.head.b, g)
					}
				}
				for ; c.match != noRow; c.match = getInt32(h.next.b, int(c.match)) {
					r := int(c.match)
					if h.Semi && h.matched.b[r] != 0 {
						continue
					}
					if out.Full() {
						h.ctx.ChargeCopy(p, matched*h.sch.Width())
						return out, MoreData
					}
					row := out.slot()
					copy(row, h.rows.b[r*bw:(r+1)*bw])
					if h.Semi {
						h.matched.b[r] = 1
					} else {
						copy(row[bw:], c.in.Row(c.row))
					}
					out.N++
					matched++
				}
			}
		}
		h.ctx.ChargeCopy(p, matched*h.sch.Width())
		st := c.st
		c.in = nil
		if st == Depleted {
			return out, Depleted
		}
		if out.N >= out.Cap()/2 {
			return out, MoreData
		}
	}
}

// Close implements Operator.
func (h *HashJoin) Close(p *sim.Proc) {
	h.Build.Close(p)
	h.Probe.Close(p)
	releaseBatches(h.out)
	h.ht.release()
	for _, s := range []*store{&h.head, &h.tail, &h.next, &h.rows, &h.matched} {
		s.release()
	}
}

// AggKind selects the aggregate function.
type AggKind int

const (
	// AggCount counts rows.
	AggCount AggKind = iota
	// AggSum sums Eval over rows.
	AggSum
)

// AggSpec is one aggregate: for AggSum, Eval extracts the addend.
type AggSpec struct {
	Kind AggKind
	Eval func(b *Batch, i int) float64
}

// HashAgg groups by the byte image of KeyCols and computes Aggs. Threads
// build per-thread partial tables; the last thread to finish merges them in
// thread order (so a group's float sums always add up in the same order),
// then results are emitted round-robin across threads, in ascending byte
// order of the key image.
// Output schema: key columns followed by one float64 per aggregate.
type HashAgg struct {
	In      Operator
	KeyCols []int
	Aggs    []AggSpec

	ctx     *Ctx
	sch     *Schema
	keyAt   [][2]int   // byte span of each key column within an input row
	partial []aggTable // one per thread, released once merged
	merged  aggTable
	order   store // int32s: merged's groups in emission order
	done    bool
	barrier *Barrier
	cursor  int
	out     []*Batch
}

// aggTable is a group table with its accumulators, a store of float64s:
// group g's are entries g*len(Aggs) to (g+1)*len(Aggs)-1.
type aggTable struct {
	groupTable
	acc store
}

// release returns the table's stores to the pool.
func (t *aggTable) release() {
	t.groupTable.release()
	t.acc.release()
}

// Schema implements Operator; it is valid before Open.
func (a *HashAgg) Schema() *Schema {
	if a.sch == nil {
		ts := make([]Type, 0, len(a.KeyCols)+len(a.Aggs))
		for _, c := range a.KeyCols {
			ts = append(ts, a.In.Schema().Cols[c])
		}
		for range a.Aggs {
			ts = append(ts, TFloat64)
		}
		a.sch = NewSchema(ts...)
	}
	return a.sch
}

// Open implements Operator.
func (a *HashAgg) Open(ctx *Ctx) {
	a.In.Open(ctx)
	a.ctx = ctx
	a.sch = a.Schema()
	insch := a.In.Schema()
	a.keyAt = make([][2]int, len(a.KeyCols))
	kw := 0
	for i, c := range a.KeyCols {
		off, n := insch.Offset(c), insch.Cols[c].Size()
		a.keyAt[i] = [2]int{off, off + n}
		kw += n
	}
	a.partial = make([]aggTable, ctx.Threads)
	for i := range a.partial {
		a.partial[i].kw = kw
	}
	a.merged.kw = kw
	a.barrier = NewBarrier(ctx.S, "hashagg", ctx.Threads)
	a.out = threadBatches(a.sch, DefaultBatchTuples, ctx.Threads)
}

// keyOf returns row's key image: a one-column key is a slice of the row
// itself, several columns are gathered into scratch (kw bytes, the calling
// thread's own).
func (a *HashAgg) keyOf(row, scratch []byte) []byte {
	if len(a.keyAt) == 1 {
		return row[a.keyAt[0][0]:a.keyAt[0][1]]
	}
	key := scratch[:0]
	for _, at := range a.keyAt {
		key = append(key, row[at[0]:at[1]]...)
	}
	return key
}

func (a *HashAgg) consume(p *sim.Proc, tid int) {
	part := &a.partial[tid]
	aw := 8 * len(a.Aggs) // accumulator bytes a group
	scratch := make([]byte, part.kw)
	for {
		in, st := a.In.Next(p, tid)
		if in != nil && in.N > 0 {
			a.ctx.ChargeHash(p, in.N)
			a.ctx.ChargeTuples(p, in.N*len(a.Aggs))
			for i := 0; i < in.N; i++ {
				g, added := part.insert(a.keyOf(in.Row(i), scratch))
				if added {
					clear(part.acc.grow(aw)) // pooled bytes are not zeros
				}
				acc := part.acc.b[g*aw : (g+1)*aw]
				for j, spec := range a.Aggs {
					switch spec.Kind {
					case AggCount:
						putFloat64(acc, j, getFloat64(acc, j)+1)
					case AggSum:
						putFloat64(acc, j, getFloat64(acc, j)+spec.Eval(in, i))
					}
				}
			}
		}
		if st == Depleted {
			break
		}
	}
	if a.barrier.Wait(p) {
		// Last thread merges the partials deterministically, returning each
		// to the pool once it is folded in.
		m := &a.merged
		total := 0
		for i := range a.partial {
			part := &a.partial[i]
			total += part.n
			for g := 0; g < part.n; g++ {
				acc := part.acc.b[g*aw : (g+1)*aw]
				mg, added := m.insert(part.key(g))
				if added {
					copy(m.acc.grow(aw), acc)
					continue
				}
				macc := m.acc.b[mg*aw : (mg+1)*aw]
				for j := range a.Aggs {
					putFloat64(macc, j, getFloat64(macc, j)+getFloat64(acc, j))
				}
			}
			part.release()
		}
		a.ctx.ChargeHash(p, total)
		a.order = m.sorted()
	}
	a.barrier.Wait(p)
	a.done = true
}

// Next implements Operator.
func (a *HashAgg) Next(p *sim.Proc, tid int) (*Batch, State) {
	if !a.done {
		a.consume(p, tid)
	}
	out := a.out[tid]
	out.Reset()
	m, na := &a.merged, len(a.Aggs)
	groups := len(a.order.b) / 4
	for out.N < out.Cap() && a.cursor < groups {
		g := int(getInt32(a.order.b, a.cursor))
		a.cursor++
		copy(out.slot(), m.key(g)) // key bytes are a prefix of the output row
		out.N++
		for j := 0; j < na; j++ {
			out.SetFloat64(out.N-1, len(a.KeyCols)+j, getFloat64(m.acc.b, g*na+j))
		}
	}
	a.ctx.ChargeTuples(p, out.N)
	if a.cursor >= groups {
		return out, Depleted
	}
	return out, MoreData
}

// Close implements Operator.
func (a *HashAgg) Close(p *sim.Proc) {
	a.In.Close(p)
	releaseBatches(a.out)
	for i := range a.partial {
		a.partial[i].release()
	}
	a.merged.release()
	a.order.release()
}

// TopN fully drains its input, sorts with Less over raw rows, and emits the
// first N rows (all of them if N <= 0). The sort itself runs on the last
// arriving thread.
type TopN struct {
	In   Operator
	N    int
	Less func(sch *Schema, a, b []byte) bool

	ctx     *Ctx
	w       int   // row width
	rows    store // every input row, in arrival order
	order   store // int32s: row numbers in rows, sorted and cut to N
	sorted  bool
	barrier *Barrier
	mu      *sim.Mutex
	cursor  int
	out     []*Batch
}

// Schema implements Operator.
func (t *TopN) Schema() *Schema { return t.In.Schema() }

// Open implements Operator.
func (t *TopN) Open(ctx *Ctx) {
	t.In.Open(ctx)
	t.ctx = ctx
	t.w = t.In.Schema().Width()
	t.barrier = NewBarrier(ctx.S, "topn", ctx.Threads)
	t.mu = ctx.S.NewMutex("topn")
	t.out = threadBatches(t.In.Schema(), DefaultBatchTuples, ctx.Threads)
}

// row returns stored row r.
func (t *TopN) row(r int32) []byte { return t.rows.b[int(r)*t.w : (int(r)+1)*t.w] }

// byLess orders a TopN's row numbers with its Less, for sort.Stable.
type byLess struct {
	t   *TopN
	sch *Schema
}

func (o byLess) Len() int { return len(o.t.order.b) / 4 }
func (o byLess) Less(i, j int) bool {
	order := o.t.order.b
	return o.t.Less(o.sch, o.t.row(getInt32(order, i)), o.t.row(getInt32(order, j)))
}
func (o byLess) Swap(i, j int) {
	order := o.t.order.b
	a, b := getInt32(order, i), getInt32(order, j)
	putInt32(order, i, b)
	putInt32(order, j, a)
}

// Next implements Operator.
func (t *TopN) Next(p *sim.Proc, tid int) (*Batch, State) {
	if !t.sorted {
		for {
			in, st := t.In.Next(p, tid)
			if in != nil && in.N > 0 {
				t.ctx.ChargeCopy(p, in.N*t.w)
				t.mu.Lock(p)
				copy(t.rows.grow(len(in.Bytes())), in.Bytes())
				t.mu.Unlock(p)
			}
			if st == Depleted {
				break
			}
		}
		if t.barrier.Wait(p) {
			sch := t.In.Schema()
			// n log n comparison cost, charged to the sorting thread.
			n := len(t.rows.b) / t.w
			if n > 1 {
				cost := 0
				for m := n; m > 1; m >>= 1 {
					cost += n
				}
				t.ctx.ChargeTuples(p, cost)
			}
			order := t.order.reset(4 * n)
			for i := 0; i < n; i++ {
				putInt32(order, i, int32(i))
			}
			sort.Stable(byLess{t, sch})
			if t.N > 0 && n > t.N {
				t.order.b = order[:4*t.N]
			}
		}
		t.barrier.Wait(p)
		t.sorted = true
	}
	out := t.out[tid]
	out.Reset()
	n := len(t.order.b) / 4
	for out.N < out.Cap() && t.cursor < n {
		out.AppendRow(t.row(getInt32(t.order.b, t.cursor)))
		t.cursor++
	}
	if t.cursor >= n {
		return out, Depleted
	}
	return out, MoreData
}

// Close implements Operator.
func (t *TopN) Close(p *sim.Proc) {
	t.In.Close(p)
	releaseBatches(t.out)
	t.rows.release()
	t.order.release()
}

// Burn adds a fixed CPU cost per batch pulled through it; the paper's
// compute-intensity experiment (Fig. 13) uses it to emulate query fragments
// of varying compute demand.
type Burn struct {
	In Operator
	// PerBatch is the CPU time burned for each batch returned by In.
	PerBatch sim.Duration
	// Batches counts burn periods across all threads.
	Batches int64
}

// Schema implements Operator.
func (b *Burn) Schema() *Schema { return b.In.Schema() }

// Open implements Operator.
func (b *Burn) Open(ctx *Ctx) { b.In.Open(ctx) }

// Next implements Operator.
func (b *Burn) Next(p *sim.Proc, tid int) (*Batch, State) {
	in, st := b.In.Next(p, tid)
	if in != nil && in.N > 0 && b.PerBatch > 0 {
		b.Batches++
		p.Sleep(b.PerBatch)
	}
	return in, st
}

// Close implements Operator.
func (b *Burn) Close(p *sim.Proc) { b.In.Close(p) }

// Sink drains an operator tree from all threads and accumulates counts. Use
// Run to execute a full plan.
type Sink struct {
	In Operator

	Rows  int64
	Bytes int64
	// Keep retains all emitted rows when set (for result verification).
	Keep   bool
	Result *Table
	// Busy and Blocked accumulate the worker threads' virtual CPU and wait
	// times, for utilization profiling.
	Busy, Blocked sim.Duration
}

// Run opens the plan and drains it with ctx.Threads worker Procs, invoking
// done (if non-nil) when every thread has finished and the plan is closed.
func (s *Sink) Run(ctx *Ctx, name string, done func(p *sim.Proc)) {
	s.In.Open(ctx)
	if s.Keep {
		s.Result = NewTable(s.In.Schema())
	}
	wg := ctx.S.NewWaitGroup("sink " + name)
	for tid := 0; tid < ctx.Threads; tid++ {
		tid := tid
		wg.Go(name+"-worker", func(p *sim.Proc) {
			defer func() {
				s.Busy += p.BusyTime()
				s.Blocked += p.BlockedTime()
			}()
			for {
				b, st := s.In.Next(p, tid)
				if b != nil && b.N > 0 {
					s.Rows += int64(b.N)
					s.Bytes += int64(b.N * b.Sch.Width())
					if s.Keep {
						s.Result.AppendBatch(b)
					}
				}
				if st == Depleted {
					return
				}
			}
		})
	}
	ctx.S.Spawn(name+"-join", func(p *sim.Proc) {
		wg.Wait(p)
		s.In.Close(p)
		if done != nil {
			done(p)
		}
	})
}

package engine

import (
	"sort"

	"rshuffle/internal/sim"
)

// The map-based HashJoin and HashAgg that groupTable replaced, kept verbatim
// as the oracles of the differential tests in kernels_test.go: same rows in
// the same order, same virtual time charged to every thread.

// mapHashJoin is an in-memory equi-join: it drains Build into a shared hash
// table (all threads cooperate, with a barrier), then streams Probe,
// emitting Build-row ++ Probe-row for each match. With Semi set it becomes
// a right semi-join: each build row is emitted alone, at most once, upon
// its first probe match (EXISTS semantics).
type mapHashJoin struct {
	Build, Probe       Operator
	BuildKey, ProbeKey int
	Semi               bool

	ctx     *Ctx
	sch     *Schema
	ht      map[int64][]int32
	rows    []byte // build-side row store
	matched []bool // Semi: build rows already emitted
	built   bool
	barrier *Barrier
	out     []*Batch
	carry   []mapProbeCarry
	mu      *sim.Mutex
}

// mapProbeCarry resumes a probe batch whose matches overflowed the output.
type mapProbeCarry struct {
	in    *Batch
	st    State
	row   int // next probe row to examine
	match int // next match index within that row's chain
}

// Schema implements Operator; it is valid before Open.
func (h *mapHashJoin) Schema() *Schema {
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
func (h *mapHashJoin) Open(ctx *Ctx) {
	h.Build.Open(ctx)
	h.Probe.Open(ctx)
	h.ctx = ctx
	h.sch = h.Schema()
	h.ht = make(map[int64][]int32)
	h.barrier = NewBarrier(ctx.S, "hashjoin", ctx.Threads)
	h.mu = ctx.S.NewMutex("hashjoin-build")
	h.out = threadBatches(h.sch, DefaultBatchTuples, ctx.Threads)
	h.carry = make([]mapProbeCarry, ctx.Threads)
}

// buildPhase drains the build child on this thread, inserting into the
// shared table under a lock (the contention is part of the model).
func (h *mapHashJoin) buildPhase(p *sim.Proc, tid int) {
	bw := h.Build.Schema().Width()
	for {
		in, st := h.Build.Next(p, tid)
		if in != nil && in.N > 0 {
			h.ctx.ChargeHash(p, in.N)
			h.ctx.ChargeCopy(p, in.N*bw)
			h.mu.Lock(p)
			for i := 0; i < in.N; i++ {
				k := in.Int64(i, h.BuildKey)
				h.ht[k] = append(h.ht[k], int32(len(h.rows)/bw))
				h.rows = append(h.rows, in.Row(i)...)
			}
			h.mu.Unlock(p)
		}
		if st == Depleted {
			break
		}
	}
	h.barrier.Wait(p)
	if h.Semi && h.matched == nil {
		h.matched = make([]bool, len(h.rows)/bw)
	}
	h.built = true
}

// Next implements Operator.
func (h *mapHashJoin) Next(p *sim.Proc, tid int) (*Batch, State) {
	if !h.built {
		h.buildPhase(p, tid)
	}
	bw := h.Build.Schema().Width()
	out := h.out[tid]
	out.Reset()
	c := &h.carry[tid]
	for {
		if c.in == nil {
			in, st := h.Probe.Next(p, tid)
			c.in, c.st, c.row, c.match = in, st, 0, 0
			if in != nil {
				h.ctx.ChargeHash(p, in.N)
			}
		}
		matched := 0
		if c.in != nil {
			for ; c.row < c.in.N; c.row, c.match = c.row+1, 0 {
				chain := h.ht[c.in.Int64(c.row, h.ProbeKey)]
				for ; c.match < len(chain); c.match++ {
					r := int(chain[c.match])
					if h.Semi && h.matched[r] {
						continue
					}
					if out.Full() {
						h.ctx.ChargeCopy(p, matched*h.sch.Width())
						return out, MoreData
					}
					row := out.slot()
					copy(row, h.rows[r*bw:(r+1)*bw])
					if h.Semi {
						h.matched[r] = true
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
func (h *mapHashJoin) Close(p *sim.Proc) {
	h.Build.Close(p)
	h.Probe.Close(p)
}

// mapHashAgg groups by the byte image of KeyCols and computes Aggs. Threads
// build per-thread partial tables; the last thread to finish merges them,
// then results are emitted round-robin across threads.
// Output schema: key columns followed by one float64 per aggregate.
type mapHashAgg struct {
	In      Operator
	KeyCols []int
	Aggs    []AggSpec

	ctx     *Ctx
	sch     *Schema
	partial []map[string][]float64
	merged  []string // deterministic key order
	table   map[string][]float64
	done    bool
	barrier *Barrier
	cursor  int
	out     []*Batch
}

// Schema implements Operator; it is valid before Open.
func (a *mapHashAgg) Schema() *Schema {
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
func (a *mapHashAgg) Open(ctx *Ctx) {
	a.In.Open(ctx)
	a.ctx = ctx
	a.sch = a.Schema()
	a.partial = make([]map[string][]float64, ctx.Threads)
	for i := range a.partial {
		a.partial[i] = make(map[string][]float64)
	}
	a.barrier = NewBarrier(ctx.S, "hashagg", ctx.Threads)
	a.out = threadBatches(a.sch, DefaultBatchTuples, ctx.Threads)
}

func (a *mapHashAgg) keyOf(b *Batch, i int) string {
	insch := b.Sch
	row := b.Row(i)
	var key []byte
	for _, c := range a.KeyCols {
		off := insch.Offset(c)
		key = append(key, row[off:off+insch.Cols[c].Size()]...)
	}
	return string(key)
}

func (a *mapHashAgg) consume(p *sim.Proc, tid int) {
	part := a.partial[tid]
	for {
		in, st := a.In.Next(p, tid)
		if in != nil && in.N > 0 {
			a.ctx.ChargeHash(p, in.N)
			a.ctx.ChargeTuples(p, in.N*len(a.Aggs))
			for i := 0; i < in.N; i++ {
				k := a.keyOf(in, i)
				acc := part[k]
				if acc == nil {
					acc = make([]float64, len(a.Aggs))
					part[k] = acc
				}
				for j, spec := range a.Aggs {
					switch spec.Kind {
					case AggCount:
						acc[j]++
					case AggSum:
						acc[j] += spec.Eval(in, i)
					}
				}
			}
		}
		if st == Depleted {
			break
		}
	}
	if a.barrier.Wait(p) {
		// Last thread merges the partials deterministically.
		a.table = make(map[string][]float64)
		total := 0
		for _, part := range a.partial {
			total += len(part)
			for k, acc := range part {
				dst := a.table[k]
				if dst == nil {
					a.table[k] = append([]float64(nil), acc...)
					continue
				}
				for j := range dst {
					dst[j] += acc[j]
				}
			}
		}
		a.ctx.ChargeHash(p, total)
		a.merged = make([]string, 0, len(a.table))
		for k := range a.table {
			a.merged = append(a.merged, k)
		}
		sort.Strings(a.merged)
	}
	a.barrier.Wait(p)
	a.done = true
}

// Next implements Operator.
func (a *mapHashAgg) Next(p *sim.Proc, tid int) (*Batch, State) {
	if !a.done {
		a.consume(p, tid)
	}
	out := a.out[tid]
	out.Reset()
	for out.N < out.Cap() && a.cursor < len(a.merged) {
		k := a.merged[a.cursor]
		a.cursor++
		row := out.slot()
		copy(row, k) // key bytes are a prefix of the output row
		acc := a.table[k]
		out.N++
		for j, v := range acc {
			out.SetFloat64(out.N-1, len(a.KeyCols)+j, v)
		}
	}
	a.ctx.ChargeTuples(p, out.N)
	if a.cursor >= len(a.merged) {
		return out, Depleted
	}
	return out, MoreData
}

// Close implements Operator.
func (a *mapHashAgg) Close(p *sim.Proc) { a.In.Close(p) }

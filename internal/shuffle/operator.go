package shuffle

import (
	"errors"
	"fmt"

	"rshuffle/internal/engine"
	"rshuffle/internal/sim"
)

// KeyInt64Col returns a partitioning hash over an int64 column, mixed with
// a Fibonacci multiplier so consecutive keys spread across groups.
func KeyInt64Col(col int) func(sch *engine.Schema, row []byte) uint64 {
	return func(sch *engine.Schema, row []byte) uint64 {
		v := uint64(engine.RowInt64(sch, row, col))
		v *= 0x9E3779B97F4A7C15
		return v >> 17
	}
}

// Shuffle is the data-transmitting SHUFFLE operator (Algorithm 1). It is a
// leaf of the sending fragment: each worker thread drains the child
// operator, hashes every tuple to a transmission group, packs tuples into
// RDMA-registered buffers leased from its endpoint, and transmits full
// buffers in one RDMA operation. Its Next returns Depleted once the child
// is drained and end-of-stream has propagated to every receive endpoint.
type Shuffle struct {
	In   engine.Operator
	Comm Provider
	Node int
	G    Groups
	Key  hashKeyFunc

	// ZeroCopy models sending tuples without materializing them into the
	// transmission buffer: the per-byte copy disappears, but every record
	// needs its own scatter/gather element in the work request. Following
	// Kesavan et al. (and §4.3.1), this only pays off for large records —
	// the library copies by default.
	ZeroCopy bool

	// SkipTo marks destination nodes whose partitions are already complete
	// from a previous attempt (partial restart): tuples whose transmission
	// group lies entirely within the skip set are hashed but neither packed
	// nor sent. End-of-stream still propagates to skipped destinations, so
	// their receivers observe a clean zero-row stream.
	SkipTo []bool

	// Err records the first transport error; the query should restart.
	Err error

	// BufsSent counts transmission buffers handed to SEND across all
	// threads, and SendWRs the send work requests those buffers cost at the
	// operator level (one per destination per buffer — the census a DAG
	// edge reports as its WQE cost; hardware multicast collapses the actual
	// posted count below this, which the verbs layer accounts separately).
	BufsSent, SendWRs int64

	// rowsOut counts the tuples handed to SEND, once per destination of
	// their transmission group: what the receivers of a clean run must add
	// up to (CheckErr).
	rowsOut int64

	ctx *engine.Ctx
	eps []SendEndpoint
	out [][]*Buf // [tid][group] current output buffer
	// scanning counts the threads on each endpoint still draining their
	// input, and epUsers those still sending. The last one out hands the
	// endpoint's tails, the partial buffers of its last thread to drain, to
	// Finish.
	scanning, epUsers []int
	tails             [][]Tail
	// skip[g] is true when every member of group g is in SkipTo.
	skip []bool
	// groupIDs lists the group indices for FanOut's walk over a thread's
	// partial buffers: with Repartition, group g is node g.
	groupIDs []int
	empty    *engine.Batch
}

// Schema implements engine.Operator; the shuffle transmits its input.
func (s *Shuffle) Schema() *engine.Schema { return s.In.Schema() }

// Open implements engine.Operator.
func (s *Shuffle) Open(ctx *engine.Ctx) {
	s.In.Open(ctx)
	s.ctx = ctx
	s.eps = s.Comm.SendEndpoints(s.Node)
	s.out = make([][]*Buf, ctx.Threads)
	for i := range s.out {
		s.out[i] = make([]*Buf, len(s.G))
	}
	s.epUsers = make([]int, len(s.eps))
	s.tails = make([][]Tail, len(s.eps))
	for t := 0; t < ctx.Threads; t++ {
		s.epUsers[t%len(s.eps)]++
	}
	s.scanning = append([]int(nil), s.epUsers...)
	s.skip = nil
	if len(s.SkipTo) > 0 {
		s.skip = make([]bool, len(s.G))
		for g, members := range s.G {
			all := len(members) > 0
			for _, m := range members {
				if m >= len(s.SkipTo) || !s.SkipTo[m] {
					all = false
					break
				}
			}
			s.skip[g] = all
		}
	}
	s.groupIDs = allNodes(len(s.G))
	s.empty = engine.NewBatch(s.In.Schema(), 1)
}

// send transmits b to group g and, on success, adds it to the census. b's
// length is read first: once Send returns, another thread sharing the
// endpoint may already have reaped its completions and leased its slot again.
func (s *Shuffle) send(p *sim.Proc, target SendEndpoint, b *Buf, g int) error {
	n := b.Len
	if err := target.Send(p, b, s.G[g]); err != nil {
		return err
	}
	s.count(n, s.G[g])
	return nil
}

// count adds a buffer of n bytes, handed to the wire toward dest, to the
// census.
func (s *Shuffle) count(n int, dest []int) {
	fanout := int64(len(dest))
	s.BufsSent++
	s.SendWRs += fanout
	s.rowsOut += int64(n/s.In.Schema().Width()) * fanout
}

func (s *Shuffle) fail(err error) {
	if s.Err == nil {
		s.Err = err
	}
}

// Next implements engine.Operator: it runs Algorithm 1 to completion for
// this thread.
func (s *Shuffle) Next(p *sim.Proc, tid int) (*engine.Batch, engine.State) {
	target := s.eps[tid%len(s.eps)]
	sch := s.In.Schema()
	w := sch.Width()
	ng := uint64(len(s.G))
	for {
		in, st := s.In.Next(p, tid)
		if in != nil && in.N > 0 && s.Err == nil {
			s.ctx.ChargeHash(p, in.N)
			copied := 0
			for i := 0; i < in.N; i++ {
				row := in.Row(i)
				g := int(s.Key(sch, row) % ng)
				if s.skip != nil && s.skip[g] {
					// The group's receivers already hold this partition from a
					// previous attempt; the tuple is hashed but not re-sent.
					continue
				}
				cur := s.out[tid][g]
				if cur == nil {
					b, err := target.GetFree(p)
					if err != nil {
						s.fail(err)
						break
					}
					cur, s.out[tid][g] = b, b
				}
				copy(cur.Data[cur.Len:], row)
				cur.Len += w
				copied += w
				if cur.Len+w > cur.Cap() {
					if err := s.send(p, target, cur, g); err != nil {
						s.fail(err)
						break
					}
					s.out[tid][g] = nil
				}
			}
			if s.ZeroCopy {
				// One gather element per record instead of the copy.
				p.Sleep(sim.Duration(in.N) * s.ctx.Prof.SGEPerTuple)
			} else {
				s.ctx.ChargeCopy(p, copied)
			}
		}
		if st == engine.Depleted || s.Err != nil {
			break
		}
	}
	// This thread's partial buffers are its last data, walked in fan-out
	// order from the group after this node's. A leased buffer always holds
	// at least one tuple: buffers are leased on first use and the slot is
	// cleared when a full buffer is transmitted. The last thread on an
	// endpoint to drain its input keeps them as the endpoint's tails; the
	// last one out hands those to Finish, which sends them as the stream's
	// last buffers and propagates end-of-stream (Alg. 1 lines 14-17
	// generalized to any e). Every other thread sends its own.
	ep := tid % len(s.eps)
	s.scanning[ep]--
	keep := s.scanning[ep] == 0
	if s.Err == nil {
		err := FanOut(s.Node, s.groupIDs, func(g int) error {
			cur := s.out[tid][g]
			if cur == nil || s.Err != nil {
				return nil
			}
			s.out[tid][g] = nil
			if keep {
				s.tails[ep] = append(s.tails[ep], Tail{Buf: cur, Dest: s.G[g]})
				return nil
			}
			return s.send(p, target, cur, g)
		})
		if err != nil {
			s.fail(err)
		}
	}
	s.epUsers[ep]--
	if s.epUsers[ep] == 0 && s.Err == nil {
		// Finish leases buffers of its own, which may be a tail's slot once
		// that tail has gone out, so the tails' lengths are read first.
		tails := s.tails[ep]
		lens := make([]int, len(tails))
		for i, t := range tails {
			lens[i] = t.Buf.Len
		}
		if err := target.Finish(p, tails...); err != nil {
			s.fail(err)
		} else {
			for i, t := range tails {
				s.count(lens[i], t.Dest)
			}
		}
	}
	return s.empty, engine.Depleted
}

// Close implements engine.Operator.
func (s *Shuffle) Close(p *sim.Proc) { s.In.Close(p) }

// Receive is the data-receiving RECEIVE operator (Algorithm 2). It is the
// leaf of the receiving fragment: each call pulls transmission buffers from
// the thread's endpoint, copies tuples into a thread-local output batch,
// releases the buffer, and returns the batch when full.
type Receive struct {
	Comm Provider
	Node int
	// Sch is the schema of the rows being received (the sending shuffle's
	// input schema).
	Sch *engine.Schema
	// BatchTuples overrides the output batch capacity (0 = engine default).
	// The paper's compute-intensity experiment pulls 32 KiB batches.
	BatchTuples int

	// Err records the first transport error observed by any thread.
	Err error
	// Bytes counts payload bytes received across all threads.
	Bytes int64
	// Rows counts tuples received.
	Rows int64
	// RowsFrom counts tuples received per source node (grown on demand);
	// together with endpoint completion state it forms the per-partition
	// progress watermark that partial-restart recovery consults.
	RowsFrom []int64

	ctx  *engine.Ctx
	eps  []RecvEndpoint
	out  []*engine.Batch
	pend []pendingData // per-thread partially consumed buffer
}

// pendingData is what is left of a buffer that did not fit the last output
// batch: d.Payload[off:]. A nil d means nothing is pending.
type pendingData struct {
	d   *Data
	off int
}

// Schema implements engine.Operator.
func (r *Receive) Schema() *engine.Schema { return r.Sch }

// Open implements engine.Operator.
func (r *Receive) Open(ctx *engine.Ctx) {
	r.ctx = ctx
	r.eps = r.Comm.RecvEndpoints(r.Node)
	r.out = make([]*engine.Batch, ctx.Threads)
	r.pend = make([]pendingData, ctx.Threads)
	bt := r.BatchTuples
	if bt <= 0 {
		bt = engine.DefaultBatchTuples
	}
	for i := range r.out {
		r.out[i] = engine.NewBatch(r.Sch, bt)
	}
}

// Next implements engine.Operator.
func (r *Receive) Next(p *sim.Proc, tid int) (*engine.Batch, engine.State) {
	target := r.eps[tid%len(r.eps)]
	out := r.out[tid]
	out.Reset()
	for {
		d, off := r.pend[tid].d, r.pend[tid].off
		r.pend[tid] = pendingData{}
		if d == nil {
			var err error
			d, err = target.GetData(p)
			if err != nil {
				if r.Err == nil {
					r.Err = err
				}
				return out, engine.Depleted
			}
			if d == nil {
				return out, engine.Depleted
			}
		}
		n := out.AppendRows(d.Payload[off:])
		consumed := n * r.Sch.Width()
		r.ctx.ChargeCopy(p, consumed)
		r.Bytes += int64(consumed)
		r.Rows += int64(n)
		for len(r.RowsFrom) <= d.Src {
			r.RowsFrom = append(r.RowsFrom, 0)
		}
		r.RowsFrom[d.Src] += int64(n)
		off += consumed
		if off < len(d.Payload) {
			r.pend[tid] = pendingData{d: d, off: off}
			return out, engine.MoreData
		}
		if err := target.Release(p, d); err != nil {
			if r.Err == nil {
				r.Err = err
			}
			return out, engine.Depleted
		}
		if out.Full() {
			return out, engine.MoreData
		}
	}
}

// Close implements engine.Operator: the output batches' row stores go back
// to the buffer pool.
func (r *Receive) Close(p *sim.Proc) {
	for _, b := range r.out {
		b.Release()
	}
}

// PartitionProgress is the watermark of the stream from one source node.
type PartitionProgress struct {
	// Rows is how many tuples arrived from the source.
	Rows int64
	// Complete is true when every receive endpoint saw the source's
	// end-of-stream marker: the partition is fully delivered and a restart
	// may skip re-streaming it (provided this node's memory survived).
	Complete bool
}

// Progress returns the per-source progress watermarks over n source nodes.
// A source is complete only if every endpoint reports its stream depleted;
// endpoints that cannot report progress make every source incomplete, which
// degrades partial restart to a (correct) full restart.
func (r *Receive) Progress(n int) []PartitionProgress {
	out := make([]PartitionProgress, n)
	for src := 0; src < n; src++ {
		if src < len(r.RowsFrom) {
			out[src].Rows = r.RowsFrom[src]
		}
		complete := len(r.eps) > 0
		for _, ep := range r.eps {
			pr, ok := ep.(ProgressReporter)
			if !ok || !pr.Depleted(src) {
				complete = false
				break
			}
		}
		out[src].Complete = complete
	}
	return out
}

// ErrRowsLost means a shuffle whose every fragment finished clean delivered
// a different number of rows than its SHUFFLE operators handed to SEND: the
// transport lost, duplicated or misrouted data without noticing.
var ErrRowsLost = errors.New("shuffle: rows sent and rows received differ")

// CheckErr judges one shuffle from its per-node operators (nil entries are
// skipped). It returns the first transport error, in node order with a
// node's sending side first. If every fragment ran clean it checks
// conservation: the receivers together must hold exactly the rows the
// senders handed to SEND, once per destination of each row's transmission
// group (groups suppressed by SkipTo were never handed over).
func CheckErr(sends []*Shuffle, recvs []*Receive) error {
	var sent, got int64
	for a := range sends {
		if sh := sends[a]; sh != nil {
			if sh.Err != nil {
				return fmt.Errorf("shuffle send: %w", sh.Err)
			}
			sent += sh.rowsOut
		}
		if rc := recvs[a]; rc != nil {
			if rc.Err != nil {
				return fmt.Errorf("shuffle recv: %w", rc.Err)
			}
			got += rc.Rows
		}
	}
	if sent != got {
		return fmt.Errorf("%w: %d handed to SEND, %d received", ErrRowsLost, sent, got)
	}
	return nil
}

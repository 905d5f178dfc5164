package engine

import (
	"math"

	"rshuffle/internal/fabric"
	"rshuffle/internal/sim"
)

func float64bits(f float64) uint64     { return math.Float64bits(f) }
func float64frombits(u uint64) float64 { return math.Float64frombits(u) }

// State is the pull-protocol state returned by Next.
type State int

const (
	// MoreData means further batches may follow for this thread.
	MoreData State = iota
	// Depleted means this thread will receive no more data.
	Depleted
)

func (s State) String() string {
	if s == MoreData {
		return "MoreData"
	}
	return "Depleted"
}

// Ctx carries what operators need at Open time.
type Ctx struct {
	S       *sim.Simulation
	Prof    *fabric.Profile
	Threads int
	// Node is the cluster node this plan fragment runs on.
	Node int
}

// ChargeTuples charges p the light per-tuple processing cost for n tuples.
func (c *Ctx) ChargeTuples(p *sim.Proc, n int) {
	if n > 0 {
		p.Sleep(sim.Duration(n) * c.Prof.TupleProcess)
	}
}

// ChargeHash charges p the partition-hash cost for n tuples.
func (c *Ctx) ChargeHash(p *sim.Proc, n int) {
	if n > 0 {
		p.Sleep(sim.Duration(n) * c.Prof.HashPerTuple)
	}
}

// ChargeCopy charges p the cost of copying n bytes.
func (c *Ctx) ChargeCopy(p *sim.Proc, n int) {
	if n > 0 {
		p.Sleep(sim.Duration(float64(n) * c.Prof.MemCopyPerByte))
	}
}

// Operator is the vectorized, parallel pull interface of Figure 1. Next is
// called concurrently by ctx.Threads worker Procs, each passing its thread
// id; operator state is thread-partitioned to avoid interference.
type Operator interface {
	// Schema describes the rows this operator produces.
	Schema() *Schema
	// Open prepares per-thread state. It is called once, before any Next.
	Open(ctx *Ctx)
	// Next returns the next batch for thread tid. The returned batch is
	// owned by the operator and valid until the same thread's next call;
	// the caller reads it and never writes it — it may be a view of stored
	// data (Scan hands out the table's own rows).
	// After returning Depleted the operator keeps returning Depleted.
	Next(p *sim.Proc, tid int) (*Batch, State)
	// Close releases operator resources after all threads have finished.
	Close(p *sim.Proc)
}

// Barrier blocks each arriving thread until all ctx.Threads have arrived,
// then releases them together. It is reusable across phases.
type Barrier struct {
	n       int
	arrived int
	gen     int
	cond    *sim.Cond
}

// NewBarrier returns a barrier for n threads.
func NewBarrier(s *sim.Simulation, name string, n int) *Barrier {
	return &Barrier{n: n, cond: s.NewCond("barrier " + name)}
}

// Wait blocks p until all threads arrive. It returns true for exactly one
// thread per generation (the last arriver), which is convenient for
// single-threaded merge steps.
func (b *Barrier) Wait(p *sim.Proc) bool {
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return true
	}
	for b.gen == gen {
		b.cond.Wait(p)
	}
	return false
}

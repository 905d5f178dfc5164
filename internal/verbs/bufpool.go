package verbs

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Registered rings and the chunk pool behind them.
//
// What is registered and what is backed are two different quantities here.
// The paper's designs register a send pool and a 16-deep receive window per
// peer per thread (§4.4), O(N²·window) bytes across a cluster, and the
// simulated cost of that — RegisteredBytes, the peak gauge, Comm.RegTime,
// SendMemoryPerNode — is charged in full when a ring is registered. Host
// memory is another matter: registration is a virtual cost, and only bytes
// that are actually read or written need a page. A ring (AllocRingNoCost) is
// therefore a table of slot-aligned chunks, none of them backed at
// registration; MR.Bytes backs a chunk the first time anything touches it —
// GETFREE handing out a send buffer, the NIC's delivery copy landing a
// message in a posted receive slot, an RDMA Read or Write reaching the
// region — and always on the owning device's partition, so the pool's own
// mutex is the only lock involved. A 32-node MEMQ/SR query registers
// 2.3 GiB of rings and touches about a sixth of them; backing all of it
// would mean allocating and zeroing, on every query, whatever exceeds the
// pool's budget — most of such a query's CPU.
//
// Chunks hold as many whole slots as fit in ringChunkTarget (one slot when
// the slot is larger), so no slot-sized access straddles two chunks and the
// pool sees a handful of chunk sizes — 64 KiB for every 4 KiB–64 KiB slot
// size in the tree — rather than one size per ring shape. What one cluster
// parks, any differently shaped cluster can reuse, so a pool filled by one
// ring shape is not a cliff for the next: with a class per shape, a full
// budget of the wrong shapes would leave a query nothing to take and nowhere
// to park what it allocated.
//
// Chunks come back from the pool with UNSPECIFIED CONTENTS (whatever the
// previous tenant wrote). That is safe for data rings because every consumer
// in the transport designs reads only length-bounded regions it has seen
// written (WC byte counts, staged lengths, valid markers) — the same
// discipline a real ibv buffer imposes, since pinned memory is never zeroed
// by the NIC. Regions whose initial all-zero state is load-bearing (credit
// words, stage arrays, valid/slot markers) must NOT come from the pool;
// register a fresh make([]byte, n) for those.
//
// The pool is an explicitly budgeted LIFO free list per power-of-two size
// class, not a sync.Pool: sync.Pool's GC-epoch retention let long sweeps
// (hundreds of clusters between collections) accumulate gigabytes of dead
// rings, which in turn stretched the GC pacing goal and slowed every later
// simulation in the process. Here putBuf drops chunks beyond a fixed
// process-wide byte budget, so retention is bounded by bufPoolBudget no
// matter how many clusters a sweep builds, and the GC never interacts with
// the pool at all. Pool hits are non-deterministic under parallel cells
// (classes are shared process-wide), but only chunk identity varies — never
// simulated behaviour, because contents are invisible (above) and virtual
// time is independent of host memory. For the same reason hit counts stay
// out of the cluster metrics registry: PoolStats is for benchmarks only.

const (
	bufClassMinBits = 12 // 4 KiB: below this, pooling saves less than it costs
	bufClassMaxBits = 28 // 256 MiB: largest single-slot region any experiment builds

	// ringChunkTarget is the chunk size rings aim for: the slot size the
	// RC designs use by default, so one 64 KiB message backs one chunk, and
	// large enough that small-slot (UD) rings touch the pool once per ~15
	// slots rather than once per datagram.
	ringChunkTarget = 64 << 10

	// bufPoolBudget caps the total bytes retained across all classes.
	// Beyond it, putBuf drops buffers for the GC to reclaim.
	bufPoolBudget = 768 << 20
)

var (
	bufClasses  [bufClassMaxBits - bufClassMinBits + 1]bufClassList
	bufRetained atomic.Int64 // bytes currently parked across all classes
)

// bufClassList is one size class's free list: a mutex-guarded LIFO stack,
// so the most recently parked chunk (hottest in cache, already faulted in)
// is reused first.
type bufClassList struct {
	mu           sync.Mutex
	bufs         [][]byte
	hits, misses int64
}

// bufClass returns the index of the smallest class holding n bytes, or -1
// when n falls outside the pooled range.
func bufClass(n int) int {
	if n <= 0 || n > 1<<bufClassMaxBits {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b < bufClassMinBits {
		b = bufClassMinBits
	}
	return b - bufClassMinBits
}

// getBuf returns an n-byte slice backed by a pooled class-sized array, or a
// fresh allocation when n is outside the pooled range. Contents are
// unspecified on a pool hit.
func getBuf(n int) []byte {
	c := bufClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	cl := &bufClasses[c]
	cl.mu.Lock()
	if last := len(cl.bufs) - 1; last >= 0 {
		b := cl.bufs[last]
		cl.bufs[last] = nil
		cl.bufs = cl.bufs[:last]
		cl.hits++
		cl.mu.Unlock()
		bufRetained.Add(-int64(cap(b)))
		return b[:n]
	}
	cl.misses++
	cl.mu.Unlock()
	return make([]byte, n, 1<<(c+bufClassMinBits))
}

// putBuf returns a buffer obtained from getBuf to its class. Buffers whose
// capacity is not an exact class size (out-of-range allocations) or that
// would push retention past bufPoolBudget are left for the GC.
func putBuf(b []byte) {
	c := cap(b)
	if c < 1<<bufClassMinBits || c&(c-1) != 0 || c > 1<<bufClassMaxBits {
		return
	}
	if bufRetained.Add(int64(c)) > bufPoolBudget {
		bufRetained.Add(-int64(c))
		return
	}
	cl := &bufClasses[bits.Len(uint(c))-1-bufClassMinBits]
	cl.mu.Lock()
	cl.bufs = append(cl.bufs, b[:c])
	cl.mu.Unlock()
}

// PoolClassStats describes one size class of the registered-buffer pool.
type PoolClassStats struct {
	ClassBytes    int   // capacity of every chunk in the class
	Hits, Misses  int64 // requests served from the free list / by a fresh allocation
	RetainedBytes int64 // bytes parked on the free list right now
}

// PoolStats returns the classes of the process-wide registered-buffer pool
// that have seen a request, smallest first. The pool is shared by every
// simulation in the process, so the numbers depend on what else ran: use
// them in benchmarks, never in a result that must be reproducible.
func PoolStats() []PoolClassStats {
	var out []PoolClassStats
	for i := range bufClasses {
		cl := &bufClasses[i]
		cl.mu.Lock()
		st := PoolClassStats{
			ClassBytes: 1 << (i + bufClassMinBits), Hits: cl.hits, Misses: cl.misses,
			RetainedBytes: int64(len(cl.bufs)) << (i + bufClassMinBits),
		}
		cl.mu.Unlock()
		if st.Hits+st.Misses > 0 {
			out = append(out, st)
		}
	}
	return out
}

// AllocRingNoCost registers a ring of slots slots of slotSize bytes each
// whose host memory is materialised chunk by chunk on first touch (see the
// file comment): the full slots×slotSize is charged to the registered-bytes
// accounting now, while a slot nothing ever lands in costs no host memory.
// Contents are UNSPECIFIED — callers must treat the region like real pinned
// memory and only read bytes they have seen written — and every access must
// stay within one slot. The chunks return to the pool on Deregister or
// Device.RecycleMRs.
func (d *Device) AllocRingNoCost(slots, slotSize int) *MR {
	chunk := slotSize
	if slotSize > 0 && slotSize < ringChunkTarget {
		chunk = ringChunkTarget / slotSize * slotSize
	}
	mr := d.register(slots*slotSize, chunk)
	mr.pooled = true
	return mr
}

// AllocMRNoCost is AllocRingNoCost for a region accessed as one n-byte slot.
func (d *Device) AllocMRNoCost(n int) *MR { return d.AllocRingNoCost(1, n) }

// materialize backs chunk i of a ring with pooled memory.
func (m *MR) materialize(i int) []byte {
	n := m.chunk
	if rest := m.size - i*m.chunk; rest < n {
		n = rest
	}
	c := getBuf(n)
	m.chunks[i] = c
	m.dev.addMaterialized(int64(n))
	return c
}

// RecycleMRs deregisters every remaining pooled region on the device and
// returns their materialised chunks to the pool. Call it only when the
// owning simulation is finished: no Proc may touch a recycled ring again.
// Non-pooled regions are untouched, and calling it twice is a no-op.
func (d *Device) RecycleMRs() {
	for _, mr := range d.mrs {
		if mr.pooled {
			mr.release()
		}
	}
}

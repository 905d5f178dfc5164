// Package bufpool is the process-wide pool of host memory behind every
// per-query byte store: the chunks of verbs' registered rings and the UD
// datagram snapshots its devices keep, the row stores of engine's operator
// output batches, engine's operator state (hash tables, accumulators, join
// chains, TopN's rows), and the input tables cluster.RunBench synthesises. A query
// builds all of these afresh — its cluster is discarded when it ends — so
// without a pool each one is allocated, zeroed and left to the GC once per
// query. The paper's operator has the same problem with registered memory
// and the same answer: transmission buffers are registered once and cycled
// through GETFREE and RELEASE (§4).
//
// Every tenant has an owner that returns what it drew once nothing can read
// it any more: a device recycles its rings and snapshots when its simulation
// has ended, an operator returns its batches and its state in Close (a
// HashAgg its per-thread tables once they are merged), RunBench returns its
// tables after the query has run. A slice the owner did not draw here — a
// Scan batch is a view of its table — must never be parked: the next Get
// would hand a second owner memory the first one still reads. A tenant is a
// reviewed decision (`make vet` lists the packages that may call Get).
//
// Buffers come back from the pool with UNSPECIFIED CONTENTS (whatever the
// previous tenant wrote). That is safe where every consumer reads only
// length-bounded regions it has seen written — WC byte counts, staged
// lengths and valid markers on a ring, the N complete rows of a batch — the
// same discipline a real ibv buffer imposes, since pinned memory is never
// zeroed by the NIC. Regions whose initial all-zero state is load-bearing
// (credit words, stage arrays, valid/slot markers, the padding columns of a
// wide RunBench table, a hash index's empty slots) must NOT rely on the
// pool: take a fresh make([]byte, n), or clear what was drawn. Tests switch PoisonForTest on so that a read
// of bytes nobody wrote, or of a buffer already returned, changes a result
// instead of passing on a lucky zero.
//
// The pool is an explicitly budgeted LIFO free list per power-of-two size
// class, not a sync.Pool: sync.Pool's GC-epoch retention let long sweeps
// (hundreds of clusters between collections) accumulate gigabytes of dead
// rings, which in turn stretched the GC pacing goal and slowed every later
// simulation in the process. Here Put keeps retention within a fixed
// process-wide byte budget no matter how many clusters a sweep builds — a
// full pool gives up buffers nobody draws any more, or else the incoming
// one (evictFor) — and the GC never interacts with the pool at all. A
// request the free list cannot serve falls back to make, rounded up to its
// class so that the buffer can be parked later. Pool hits are
// non-deterministic under parallel cells (classes are shared process-wide),
// but only buffer identity varies — never simulated behaviour, because
// contents are invisible (above) and virtual time is independent of host
// memory. For the same reason hit counts stay out of the cluster metrics
// registry: Stats is for benchmarks and tests only.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	classMinBits = 12 // 4 KiB: below this, pooling saves less than it costs
	classMaxBits = 28 // 256 MiB: largest single-slot region any experiment builds

	// Budget caps the total bytes retained across all classes; what does
	// not fit is left to the GC.
	Budget = 768 << 20

	// poisonByte is what PoisonForTest fills parked buffers with: as a
	// column value it is no key, count or date any generator produces, and
	// it is not the zero that padding is expected to hold.
	poisonByte = 0xA5
)

var (
	classes  [classMaxBits - classMinBits + 1]classList
	retained atomic.Int64          // bytes currently parked across all classes
	budget   int64        = Budget // a variable so that a test can fill the pool
	poison   atomic.Bool
)

// classList is one size class's free list: a mutex-guarded LIFO stack, so
// the most recently parked buffer (hottest in cache, already faulted in) is
// reused first.
type classList struct {
	mu           sync.Mutex
	bufs         [][]byte
	hits, misses int64
	// floor is the fewest buffers the list has held since evictFor last
	// raised it: that many have sat at the bottom of the stack undrawn.
	floor int
}

// classOf returns the index of the smallest class holding n bytes, or -1
// when n falls outside the pooled range.
func classOf(n int) int {
	if n <= 0 || n > 1<<classMaxBits {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b < classMinBits {
		b = classMinBits
	}
	return b - classMinBits
}

// Get returns an n-byte slice backed by a pooled class-sized array, or a
// fresh allocation when n is outside the pooled range. Contents are
// unspecified on a pool hit.
func Get(n int) []byte {
	c := classOf(n)
	if c < 0 {
		return make([]byte, n)
	}
	cl := &classes[c]
	cl.mu.Lock()
	if last := len(cl.bufs) - 1; last >= 0 {
		b := cl.bufs[last]
		cl.bufs[last] = nil
		cl.bufs = cl.bufs[:last]
		cl.floor = min(cl.floor, last)
		cl.hits++
		cl.mu.Unlock()
		retained.Add(-int64(cap(b)))
		return b[:n]
	}
	cl.misses++
	cl.mu.Unlock()
	return make([]byte, n, 1<<(c+classMinBits))
}

// Put returns a buffer obtained from Get to its class; the caller must hold
// the only reference. Buffers whose capacity is not an exact class size
// (out-of-range allocations) are left for the GC, and so is whatever a full
// pool cannot hold (see evictFor).
func Put(b []byte) {
	c := cap(b)
	if c < 1<<classMinBits || c&(c-1) != 0 || c > 1<<classMaxBits {
		return
	}
	Scribble(b[:c])
	ci := classOf(c)
	if retained.Add(int64(c)) > budget && !evictFor(ci, int64(c)) {
		retained.Add(-int64(c))
		return
	}
	cl := &classes[ci]
	cl.mu.Lock()
	cl.bufs = append(cl.bufs, b[:c])
	cl.mu.Unlock()
}

// evictFor makes room in a full pool for n more bytes of class ci by
// dropping idle buffers, and reports whether it did; when it did not, the
// incoming buffer is the one to go. Idle buffers are the ones below a
// class's floor: a free list is a stack, so whatever a tenant's working set
// does not reach sits at the bottom of it, undrawn. The class with the most
// idle bytes gives way first, and when that is ci itself the incoming
// buffer is surplus too. When no class has any known idle buffer, every
// floor is raised to its list's length — from here on the Gets show what is
// still in use — and the incoming buffer is dropped.
//
// Without eviction the tenants that fill the budget first would lock the
// others out for the rest of the process: a class with nothing parked can
// only miss, and what it then allocates finds no room either, so a sweep
// would keep the 16 MiB tables of a cell long gone while every later cell
// allocates its ring chunks afresh (internal/experiments' tests took a
// third longer that way). Evicting by class recency alone is not enough
// either: an over-provisioned class in daily use would, each time it
// overflows, push out the small classes its own queries need.
func evictFor(ci int, n int64) bool {
	var freed int64
	for freed < n {
		victim, most := -1, int64(0)
		for i := range classes {
			cl := &classes[i]
			cl.mu.Lock()
			if idle := int64(cl.floor) << (i + classMinBits); idle > most {
				victim, most = i, idle
			}
			cl.mu.Unlock()
		}
		if victim < 0 {
			if freed == 0 {
				for i := range classes {
					cl := &classes[i]
					cl.mu.Lock()
					cl.floor = len(cl.bufs)
					cl.mu.Unlock()
				}
			}
			break
		}
		if victim == ci {
			break
		}
		cl := &classes[victim]
		cl.mu.Lock()
		for cl.floor > 0 && freed < n {
			last := len(cl.bufs) - 1
			cl.bufs[last] = nil
			cl.bufs = cl.bufs[:last]
			cl.floor--
			freed += 1 << (victim + classMinBits)
		}
		cl.mu.Unlock()
	}
	retained.Add(-freed)
	return freed >= n
}

// PoisonForTest makes every buffer handed back from now on lose its
// contents to a fill pattern, and returns a function that restores the
// previous setting. A package's TestMain switches it on for good (see
// pooltest.Main), so that test order cannot matter; a single test defers
// the restore where filling every parked buffer of the whole package would
// cost too much. Nothing outside tests may call it.
func PoisonForTest() (restore func()) {
	was := poison.Swap(true)
	return func() { poison.Store(was) }
}

// Scribble overwrites b when PoisonForTest is on and does nothing
// otherwise. Put applies it to everything it is given; an owner that keeps
// a private free list in front of the pool calls it where it parks a
// buffer, so those buffers have unspecified contents under test as well.
func Scribble(b []byte) {
	if !poison.Load() {
		return
	}
	for i := range b {
		b[i] = poisonByte
	}
}

// ClassStats describes one size class of the pool.
type ClassStats struct {
	ClassBytes    int   // capacity of every buffer in the class
	Hits, Misses  int64 // requests served from the free list / by a fresh allocation
	RetainedBytes int64 // bytes parked on the free list right now
}

// Stats returns the classes of the pool that have seen a request, smallest
// first. The pool is shared by every simulation in the process, so the
// numbers depend on what else ran: use them in benchmarks and tests, never
// in a result that must be reproducible.
func Stats() []ClassStats {
	var out []ClassStats
	for i := range classes {
		cl := &classes[i]
		cl.mu.Lock()
		st := ClassStats{
			ClassBytes: 1 << (i + classMinBits), Hits: cl.hits, Misses: cl.misses,
			RetainedBytes: int64(len(cl.bufs)) << (i + classMinBits),
		}
		cl.mu.Unlock()
		if st.Hits+st.Misses > 0 {
			out = append(out, st)
		}
	}
	return out
}

package sim

import "math/bits"

// Hierarchical timer wheel: the timed-event successor to the binary heap.
//
// Virtual time is bucketed by byte: level l indexes events by byte l of
// their firing instant, so level 0 resolves single nanoseconds across a
// 256 ns window, level 1 resolves 256 ns strides across 64 Ki-ns, and so on.
// Five levels span 2^40 ns (~18 minutes) of lookahead — comfortably past
// every delay the fabric model produces (the largest calibrated constant,
// the 400 µs transport retry, sits in level 2) — and events beyond the span
// go to an unsorted overflow list that is reindexed on the rare occasion
// the wheel runs dry.
//
// Each bucket is an intrusive singly-linked FIFO threaded through the
// event records' next pointers, with a per-level occupancy bitmap so the
// next bucket is found with a TrailingZeros scan instead of a walk. Both
// schedule and cancel are O(1); advancing cascades a higher-level bucket
// down only when virtual time enters its stride.
//
// Determinism argument (same-seed traces must stay byte-identical to the
// heap's): the kernel's contract is that events fire in strict (time, seq)
// order. The wheel preserves it structurally:
//
//   - A level-0 bucket holds exactly one timestamp. Events there share
//     byte 0 (the slot index) and bytes ≥1 (equal to the clock's, or the
//     event would sit at a higher level), i.e. the whole instant.
//   - Buckets are FIFO and seq is monotonic, so a bucket is in seq order if
//     events arrive in schedule order. Direct pushes do; cascades preserve
//     list order; and a cascade always lands strictly below its source
//     level, finishing before the clock enters the stride — so cascaded
//     events are appended to a level-0 bucket before any direct push for
//     that instant can occur (a direct push at level 0 requires the clock
//     to already share bytes ≥1 with the instant).
//   - Levels are scanned bottom-up from the clock's own slot: level-l
//     events strictly above the clock's slot are strictly later than every
//     level-(l−1) event, so scan order is time order.
//
// The same-instant ring is unchanged and still merges ahead of the wheel by
// seq (see next), so the heap-era TestSameInstantFloodOrdering contract
// holds verbatim.
const (
	wheelBits   = 8               // log2 slots per level: one byte of the timestamp
	wheelSlots  = 1 << wheelBits  // 256
	wheelMask   = wheelSlots - 1  // slot index mask
	wheelWords  = wheelSlots / 64 // occupancy words per level
	wheelLevels = 5               // spans 2^(8·5) ns ≈ 18 min before overflow
	wheelSpan   = 1 << (wheelBits * wheelLevels)
)

// bucket is one wheel slot's FIFO. head and tail share a 16-byte pair so an
// append touches a single cache line.
type bucket struct {
	head, tail *event
}

// timerWheel holds the future-event state embedded in Simulation. Buckets
// are indexed by level*wheelSlots+slot.
type timerWheel struct {
	occ [wheelLevels][wheelWords]uint64
	b   [wheelLevels * wheelSlots]bucket
	// Overflow events (beyond wheelSpan of the clock) in schedule order, an
	// intrusive FIFO like the buckets.
	ovHead, ovTail *event
	ovLen          int
}

// wheelPush files e, which must satisfy e.at > s.now, under the bucket for
// its firing instant. O(1).
func (s *Simulation) wheelPush(e *event) {
	d := uint64(e.at) ^ uint64(s.now)
	var lvl int
	if d < wheelSlots {
		lvl = 0 // fast path: within the current 256 ns stride
	} else if d >= wheelSpan {
		w := &s.wh
		e.next = nil
		if w.ovTail == nil {
			w.ovHead = e
		} else {
			w.ovTail.next = e
		}
		w.ovTail = e
		w.ovLen++
		return
	} else {
		lvl = (bits.Len64(d) - 1) >> 3 // highest differing byte
	}
	s.bucketAppend(lvl, e)
}

// bucketAppend files e at the given level under the slot addressed by byte
// lvl of its instant. Callers guarantee bytes above lvl match the clock's.
func (s *Simulation) bucketAppend(lvl int, e *event) {
	w := &s.wh
	slot := int(uint64(e.at)>>(uint(lvl)*wheelBits)) & wheelMask
	b := &w.b[lvl*wheelSlots+slot]
	e.next = nil
	if t := b.tail; t != nil {
		t.next = e
	} else {
		b.head = e
	}
	b.tail = e
	w.occ[lvl][slot>>6] |= 1 << uint(slot&63)
}

// wheelAdvance finds the earliest future instant and detaches its (level-0)
// bucket into s.chain, reporting whether there was one at or below the
// horizon s.maxT. It may cascade higher-level buckets downward and advance
// s.now to a stride boundary on the way, but commits no state past the
// horizon: a false return leaves every later event where nextAt finds it.
func (s *Simulation) wheelAdvance() bool {
	w := &s.wh
	for {
		now := uint64(s.now)
		for lvl := 0; lvl < wheelLevels; lvl++ {
			slot := w.scan(lvl, int(now>>(uint(lvl)*wheelBits))&wheelMask)
			if slot < 0 {
				continue
			}
			b := &w.b[lvl*wheelSlots+slot]
			if lvl == 0 {
				// One timestamp per level-0 bucket: detach it whole.
				h := b.head
				if h.at > s.maxT {
					return false
				}
				b.head, b.tail = nil, nil
				w.occ[0][slot>>6] &^= 1 << uint(slot&63)
				s.chain = chainCanon(h)
				return true
			}
			// Virtual time is entering this stride: cascade its bucket down.
			// Everything in it lands strictly below lvl, so the bottom-up
			// rescan makes progress.
			shift := uint(lvl) * wheelBits
			stride := (now &^ ((uint64(wheelSlots) << shift) - 1)) | uint64(slot)<<shift
			if Time(stride) > s.maxT {
				return false // whole stride starts past the horizon
			}
			s.now = Time(stride)
			h := b.head
			b.head, b.tail = nil, nil
			w.occ[lvl][slot>>6] &^= 1 << uint(slot&63)
			for h != nil {
				n := h.next
				s.wheelPush(h)
				h = n
			}
			break // rescan from level 0 with the new clock
		}
		if w.occAny() {
			continue
		}
		// Wheel empty: the next event, if any, is in the overflow list,
		// beyond the wheel's 2^40 ns block. Jump the clock to the earliest
		// one and reindex everything that lands inside the new block.
		if w.ovHead == nil {
			return false
		}
		min := w.ovHead
		for e := w.ovHead.next; e != nil; e = e.next {
			if e.at < min.at {
				min = e
			}
		}
		if min.at > s.maxT {
			return false
		}
		s.now = min.at
		h := w.ovHead
		w.ovHead, w.ovTail, w.ovLen = nil, nil, 0
		for h != nil {
			n := h.next
			s.wheelPush(h) // refiles near events; the rest rejoin overflow in order
			h = n
		}
	}
}

// chainCanon puts a detached same-instant chain into canonical execution
// order: locally scheduled events first, in schedule order, then
// cross-partition deliveries by their (source actor, send sequence) key.
// Local push order is already deterministic per partition — it follows the
// partition's own execution — but deliveries append in barrier order, and
// window bounds move with the partition count: two deliveries for one
// instant can split across different barriers under one layout and share a
// single merged flush under another, swapping their FIFO positions. Keying
// ties off (rsrc, rseq) makes the executed order a pure function of the
// event set, which the cross-layout byte-identity contract requires. The
// single-wheel engine never stamps rsrc, so it takes the scan-only fast
// path.
func chainCanon(h *event) *event {
	e := h
	for e != nil && e.rsrc == 0 {
		e = e.next
	}
	if e == nil {
		return h
	}
	var lh, lt, rh *event // locals head/tail; deliveries head, sorted
	for e = h; e != nil; {
		n := e.next
		if e.rsrc == 0 {
			e.next = nil
			if lt == nil {
				lh = e
			} else {
				lt.next = e
			}
			lt = e
		} else {
			// Insertion sort: ties at one instant are nearly always 1-2
			// events, so quadratic worst case is fine.
			var prev *event
			for c := rh; c != nil && (c.rsrc < e.rsrc || (c.rsrc == e.rsrc && c.rseq < e.rseq)); c = c.next {
				prev = c
			}
			if prev == nil {
				e.next, rh = rh, e
			} else {
				e.next, prev.next = prev.next, e
			}
		}
		e = n
	}
	if lt == nil {
		return rh
	}
	lt.next = rh
	return lh
}

// scan returns the first occupied slot ≥ from at level lvl, or -1. The
// clock's own slot is included: a cascade can deposit a level-0 bucket at
// exactly the current instant.
func (w *timerWheel) scan(lvl, from int) int {
	word := from >> 6
	bmp := w.occ[lvl][word] &^ (1<<uint(from&63) - 1)
	for {
		if bmp != 0 {
			return word<<6 + bits.TrailingZeros64(bmp)
		}
		word++
		if word == wheelWords {
			return -1
		}
		bmp = w.occ[lvl][word]
	}
}

// occAny reports whether any bucket at any level is occupied.
func (w *timerWheel) occAny() bool {
	var or uint64
	for lvl := range w.occ {
		for _, word := range w.occ[lvl] {
			or |= word
		}
	}
	return or != 0
}

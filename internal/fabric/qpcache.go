package fabric

import "math/rand"

// qpCache models the NIC's on-chip Queue Pair state cache. Real adapters
// hold a limited number of QP contexts; touching an uncached QP forces a
// state fetch across PCIe (Dragojević et al. report up to 5× slowdowns from
// this). Replacement is random, which is both close to NIC behaviour and
// avoids the LRU scan-thrash cliff: with a working set of w QPs and capacity
// c < w, the hit rate degrades smoothly as roughly c/w.
type qpCache struct {
	cap   int
	slots []uint64
	index map[uint64]int
	// rng returns the owning node's stream; it is called on the first
	// eviction, not at construction (see Network.rngAt).
	rng func() *rand.Rand
}

func newQPCache(capacity int, rng func() *rand.Rand) *qpCache {
	return &qpCache{
		cap:   capacity,
		index: make(map[uint64]int, capacity),
		rng:   rng,
	}
}

// touch reports whether qp was cached, inserting it (evicting a random
// victim if full) when it was not. On eviction it also returns the evicted
// QP key for the telemetry layer.
func (c *qpCache) touch(qp uint64) (hit bool, victim uint64, evicted bool) {
	if _, ok := c.index[qp]; ok {
		return true, 0, false
	}
	if len(c.slots) < c.cap {
		c.index[qp] = len(c.slots)
		c.slots = append(c.slots, qp)
		return false, 0, false
	}
	slot := c.rng().Intn(c.cap)
	victim = c.slots[slot]
	delete(c.index, victim)
	c.slots[slot] = qp
	c.index[qp] = slot
	return false, victim, true
}

// Len returns the number of cached QP states.
func (c *qpCache) Len() int { return len(c.slots) }

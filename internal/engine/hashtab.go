package engine

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// groupTable maps fixed-width byte keys to dense group ids, handed out in
// first-seen order. It is the engine's one hash table: HashAgg indexes its
// accumulators by group id, HashJoin its build-row chains.
//
// Group g's key is keys[g*kw:(g+1)*kw], so the keys live in one arena and an
// insert draws nothing unless the arena or the index outgrows its buffer.
// index is an open-addressing table of int32s (linear probing, a power of two
// long, at most half full) holding group id + 1, with 0 for an empty slot;
// nothing is ever deleted. Both are stores (store.go) that the owner
// releases. A zero-width key (a global aggregate) is one group and is never
// hashed.
type groupTable struct {
	kw    int // key width in bytes
	keys  store
	index store
	shift uint // 64 - log2(slots): a hash's top bits pick the slot
	n     int  // groups
}

// key returns group g's key image.
func (t *groupTable) key(g int) []byte { return t.keys.b[g*t.kw : (g+1)*t.kw] }

// slots returns the length of the index.
func (t *groupTable) slots() int { return len(t.index.b) / 4 }

// release returns the table's stores to the pool and empties it.
func (t *groupTable) release() {
	t.keys.release()
	t.index.release()
	t.n = 0
}

// hashKey multiplies every 8-byte word into the running hash and folds the
// high half down between words, so the top bits — the ones a slot is taken
// from — depend on every bit of every word.
func hashKey(key []byte) uint64 {
	const m = 0x9E3779B97F4A7C15 // 2^64 / golden ratio
	var h uint64
	for ; len(key) >= 8; key = key[8:] {
		h = (h ^ binary.LittleEndian.Uint64(key)) * m
		h ^= h >> 32
	}
	for _, b := range key {
		h = (h ^ uint64(b)) * m
	}
	return h
}

// probe returns the slot that holds key, or the empty slot an insert would
// put it in, and the key's group id (-1 when absent). The table must have an
// index: at least one insert precedes it, or the caller checks n.
func (t *groupTable) probe(key []byte) (slot, gid int) {
	index, keys := t.index.b, t.keys.b
	mask := len(index)/4 - 1
	slot = int(hashKey(key) >> t.shift)
	if t.kw == 8 {
		// One int64 column — every HashJoin, most aggregates: a key is one
		// word, compared as one load from the arena.
		k := binary.LittleEndian.Uint64(key)
		for ; ; slot = (slot + 1) & mask {
			g := int(getInt32(index, slot)) - 1
			if g < 0 || binary.LittleEndian.Uint64(keys[g*8:]) == k {
				return slot, g
			}
		}
	}
	for ; ; slot = (slot + 1) & mask {
		g := int(getInt32(index, slot)) - 1
		if g < 0 || bytes.Equal(t.key(g), key) {
			return slot, g
		}
	}
}

// lookup returns key's group id, or -1 when the key was never inserted.
func (t *groupTable) lookup(key []byte) int {
	if t.n == 0 {
		return -1
	}
	if t.kw == 0 {
		return 0
	}
	_, g := t.probe(key)
	return g
}

// insert returns key's group id; a key not seen before becomes the next
// group, and added reports that. len(key) must be kw.
func (t *groupTable) insert(key []byte) (gid int, added bool) {
	if t.kw == 0 {
		added = t.n == 0
		t.n = 1
		return 0, added
	}
	if 2*t.n >= t.slots() {
		t.grow()
	}
	slot, g := t.probe(key)
	if g >= 0 {
		return g, false
	}
	putInt32(t.index.b, slot, int32(t.n+1))
	copy(t.keys.grow(t.kw), key)
	t.n++
	return t.n - 1, true
}

// grow doubles the index and re-seats every group from the arena. The
// index's buffer is reused while the doubled table fits it, and cleared
// either way: an empty slot is a zero, and a buffer from the pool holds
// whatever its last tenant wrote.
func (t *groupTable) grow() {
	size := max(16, 2*t.slots())
	index := t.index.reset(4 * size)
	clear(index)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for g := 0; g < t.n; g++ { // keys are distinct: no compares, only empty-slot search
		slot := int(hashKey(t.key(g)) >> t.shift)
		for getInt32(index, slot) != 0 {
			slot = (slot + 1) & mask
		}
		putInt32(index, slot, int32(g+1))
	}
}

// sorted returns the group ids in ascending byte order of their keys, the
// order sort.Strings gives the key images, as a store of int32s the caller
// releases. It is an LSD radix sort: one stable counting pass per byte
// position, last position first, skipping the positions on which every key
// agrees (most of them for small integers and zero-padded strings). Its
// scratch store goes back to the pool before it returns.
func (t *groupTable) sorted() store {
	var order, tmp store
	ids := order.reset(4 * t.n)
	for g := 0; g < t.n; g++ {
		putInt32(ids, g, int32(g))
	}
	keys := t.keys.b
	differ := make([]byte, t.kw) // bits in which some key departs from group 0's
	for g := 1; g < t.n; g++ {
		for b, v := range t.key(g) {
			differ[b] |= v ^ keys[b]
		}
	}
	tmp.reset(4 * t.n)
	for b := t.kw - 1; b >= 0; b-- {
		if differ[b] == 0 {
			continue
		}
		var at [256]int // first output position of each byte value
		for i := 0; i < t.n; i++ {
			at[keys[int(getInt32(order.b, i))*t.kw+b]]++
		}
		pos := 0
		for v := range at {
			at[v], pos = pos, pos+at[v]
		}
		for i := 0; i < t.n; i++ {
			g := getInt32(order.b, i)
			v := keys[int(g)*t.kw+b]
			putInt32(tmp.b, at[v], g)
			at[v]++
		}
		order, tmp = tmp, order
	}
	tmp.release()
	return order
}

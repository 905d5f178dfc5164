package engine

import (
	"encoding/binary"

	"rshuffle/internal/bufpool"
)

// store is a growable byte region of operator state drawn from the buffer
// pool: a hash table's index and key arena, aggregate accumulators, join
// chains, the rows and sort order of a TopN. Like a batch's row store it is
// built afresh by every query, so left to make it would be allocated, zeroed
// and left to the GC once a query; the pool cycles it instead.
//
// Its length is the bytes in use and its capacity the pool class it was
// drawn from. A store that outgrows its class draws a larger one, copies
// what it holds and returns the old buffer at once; its owner returns the
// last one with release — in Close, or sooner once nothing reads it.
//
// Contents are unspecified (see bufpool): a reader reads only what it has
// written, and a region whose all-zero start is load-bearing (a hash index's
// empty slots, a semi-join's matched flags) is cleared after the draw. Typed
// values are little-endian through encoding/binary, as in a row.
type store struct{ b []byte }

// grow extends the store by n bytes and returns them, contents unspecified.
// When they do not fit its class, the store moves to one at least twice as
// large, keeping what it held.
func (s *store) grow(n int) []byte {
	at := len(s.b)
	if at+n > cap(s.b) {
		b := bufpool.Get(max(at+n, 2*cap(s.b)))
		copy(b, s.b)
		s.release()
		s.b = b[:at]
	}
	s.b = s.b[:at+n]
	return s.b[at:]
}

// reset resizes the store to n bytes and returns them, contents unspecified:
// what it held is dropped, and its buffer is kept when n fits it.
func (s *store) reset(n int) []byte {
	if n > cap(s.b) {
		s.release()
		s.b = bufpool.Get(n)
	}
	s.b = s.b[:n]
	return s.b
}

// release returns the store's buffer to the pool and empties the store; it
// may grow again afterwards.
func (s *store) release() {
	if s.b != nil {
		bufpool.Put(s.b)
	}
	s.b = nil
}

// appendInt32 adds an entry to a store of int32s.
func (s *store) appendInt32(v int32) { putInt32(s.grow(4), 0, v) }

// getInt32 reads the i-th little-endian int32 of b.
func getInt32(b []byte, i int) int32 { return int32(binary.LittleEndian.Uint32(b[4*i:])) }

// putInt32 writes the i-th little-endian int32 of b.
func putInt32(b []byte, i int, v int32) { binary.LittleEndian.PutUint32(b[4*i:], uint32(v)) }

// getFloat64 reads the i-th little-endian float64 of b.
func getFloat64(b []byte, i int) float64 {
	return float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
}

// putFloat64 writes the i-th little-endian float64 of b.
func putFloat64(b []byte, i int, v float64) {
	binary.LittleEndian.PutUint64(b[8*i:], float64bits(v))
}

// Package engine implements a Pythia-like vectorized, parallel, pull-based
// query engine: fixed-width row batches, a NEXT(thread-id) operator
// interface (Figure 1 of the paper), and the relational operators needed by
// the evaluation workloads (scan, filter, project, hash join, hash
// aggregation, top-N sort, and a calibrated compute-burn operator).
//
// All CPU work is charged to the calling Proc in virtual time using the
// cluster profile's per-tuple and per-byte constants, one Sleep per batch so
// event counts stay proportional to batches, not tuples.
package engine

import (
	"encoding/binary"
	"fmt"

	"rshuffle/internal/bufpool"
)

// Type is a fixed-width column type.
type Type int

const (
	// TInt64 is a 64-bit signed integer (also used for dates as days).
	TInt64 Type = iota
	// TFloat64 is a 64-bit IEEE float.
	TFloat64
	// TStr16 is a fixed 16-byte string, zero padded.
	TStr16
	// TStr32 is a fixed 32-byte string, zero padded.
	TStr32
)

// Size returns the byte width of the type.
func (t Type) Size() int {
	switch t {
	case TInt64, TFloat64:
		return 8
	case TStr16:
		return 16
	case TStr32:
		return 32
	}
	panic(fmt.Sprintf("engine: unknown type %d", int(t)))
}

func (t Type) String() string {
	switch t {
	case TInt64:
		return "int64"
	case TFloat64:
		return "float64"
	case TStr16:
		return "str16"
	default:
		return "str32"
	}
}

// Schema describes a fixed-width row layout.
type Schema struct {
	Cols    []Type
	offsets []int
	width   int
}

// NewSchema builds a schema from column types.
func NewSchema(cols ...Type) *Schema {
	s := &Schema{Cols: cols, offsets: make([]int, len(cols))}
	for i, c := range cols {
		s.offsets[i] = s.width
		s.width += c.Size()
	}
	return s
}

// Width returns the row width in bytes.
func (s *Schema) Width() int { return s.width }

// Offset returns the byte offset of column i within a row.
func (s *Schema) Offset(i int) int { return s.offsets[i] }

// Equal reports whether two schemas have the same column layout. The DAG
// planner uses it to validate that a stage builds the same row shape on
// every cluster node and that edge endpoints agree on the wire format.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if s == nil || o == nil || len(s.Cols) != len(o.Cols) {
		return false
	}
	for i, c := range s.Cols {
		if o.Cols[i] != c {
			return false
		}
	}
	return true
}

// Concat returns a schema with s's columns followed by o's.
func (s *Schema) Concat(o *Schema) *Schema {
	return NewSchema(append(append([]Type(nil), s.Cols...), o.Cols...)...)
}

// Project returns a schema with only the selected columns of s.
func (s *Schema) Project(cols ...int) *Schema {
	ts := make([]Type, len(cols))
	for i, c := range cols {
		ts[i] = s.Cols[c]
	}
	return NewSchema(ts...)
}

// DefaultBatchTuples is the vector size of the engine.
const DefaultBatchTuples = 1024

// Batch is a vector of fixed-width rows.
type Batch struct {
	Sch  *Schema
	Data []byte
	N    int
	cap  int
	// pooled records that Data was drawn from the buffer pool by rows, and
	// so is Release's to return. A Data somebody assigned is not: Scan
	// points its batches at the table's own rows, and parking such a view
	// would hand the table's memory to the pool's next caller.
	pooled bool
}

// NewBatch returns an empty batch holding up to capTuples rows. Its row
// store is backed when the batch first has a row to hold (see rows), so an
// output batch that never fills — most of a fragment's per-thread,
// per-operator batches, once a selective join or a small aggregate sits
// below them — costs only this header.
func NewBatch(sch *Schema, capTuples int) *Batch {
	return &Batch{Sch: sch, cap: capTuples}
}

// threadBatches returns one output batch per worker thread, the state every
// operator opens with.
func threadBatches(sch *Schema, capTuples, threads int) []*Batch {
	out := make([]*Batch, threads)
	for i := range out {
		out[i] = NewBatch(sch, capTuples)
	}
	return out
}

// releaseBatches releases every batch of an operator's per-thread state.
func releaseBatches(bs []*Batch) {
	for _, b := range bs {
		b.Release()
	}
}

// rows returns the row store for writing, backing it from the buffer pool
// on first use. Its contents are unspecified: a writer fills a whole row
// before it counts the row in N, and readers stay below N.
func (b *Batch) rows() []byte {
	if b.Data == nil {
		b.Data = bufpool.Get(b.cap * b.Sch.Width())
		b.pooled = true
	}
	return b.Data
}

// Release empties the batch and returns its row store to the buffer pool,
// if that is where it came from. The operator that owns the batch calls it
// from Close, when no thread can be reading the rows any more; the batch
// may be used again and backs itself anew.
func (b *Batch) Release() {
	if b.pooled {
		bufpool.Put(b.Data)
	}
	b.Data, b.N, b.pooled = nil, 0, false
}

// Cap returns the tuple capacity.
func (b *Batch) Cap() int { return b.cap }

// Full reports whether the batch has no room left.
func (b *Batch) Full() bool { return b.N >= b.cap }

// Reset empties the batch for reuse.
func (b *Batch) Reset() { b.N = 0 }

// Bytes returns the used portion of the batch's row data.
func (b *Batch) Bytes() []byte { return b.Data[:b.N*b.Sch.Width()] }

// Row returns the raw bytes of row i.
func (b *Batch) Row(i int) []byte {
	w := b.Sch.Width()
	return b.Data[i*w : (i+1)*w]
}

// slot returns the bytes of the row after the last one, for an operator to
// fill before it counts the row in N.
func (b *Batch) slot() []byte {
	w := b.Sch.Width()
	return b.rows()[b.N*w : (b.N+1)*w]
}

// AppendRow copies a raw row into the batch; the row must match the schema
// width. It panics when full — callers check Full first.
func (b *Batch) AppendRow(row []byte) {
	if b.Full() {
		panic("engine: append to full batch")
	}
	copy(b.slot(), row)
	b.N++
}

// AppendRows bulk-copies complete rows from raw (a multiple of the row
// width) and returns how many rows were consumed.
func (b *Batch) AppendRows(raw []byte) int {
	w := b.Sch.Width()
	n := len(raw) / w
	if room := b.cap - b.N; n > room {
		n = room
	}
	copy(b.rows()[b.N*w:], raw[:n*w])
	b.N += n
	return n
}

// Int64 reads an int64 column.
func (b *Batch) Int64(row, col int) int64 {
	off := row*b.Sch.Width() + b.Sch.Offset(col)
	return int64(binary.LittleEndian.Uint64(b.Data[off:]))
}

// SetInt64 writes an int64 column.
func (b *Batch) SetInt64(row, col int, v int64) {
	off := row*b.Sch.Width() + b.Sch.Offset(col)
	binary.LittleEndian.PutUint64(b.rows()[off:], uint64(v))
}

// Float64 reads a float64 column.
func (b *Batch) Float64(row, col int) float64 {
	off := row*b.Sch.Width() + b.Sch.Offset(col)
	return float64frombits(binary.LittleEndian.Uint64(b.Data[off:]))
}

// SetFloat64 writes a float64 column.
func (b *Batch) SetFloat64(row, col int, v float64) {
	off := row*b.Sch.Width() + b.Sch.Offset(col)
	binary.LittleEndian.PutUint64(b.rows()[off:], float64bits(v))
}

// Str reads a fixed string column with padding trimmed.
func (b *Batch) Str(row, col int) string {
	off := row*b.Sch.Width() + b.Sch.Offset(col)
	n := b.Sch.Cols[col].Size()
	s := b.Data[off : off+n]
	for n > 0 && s[n-1] == 0 {
		n--
	}
	return string(s[:n])
}

// SetStr writes a fixed string column, truncating or zero-padding.
func (b *Batch) SetStr(row, col int, v string) {
	off := row*b.Sch.Width() + b.Sch.Offset(col)
	n := b.Sch.Cols[col].Size()
	dst := b.rows()[off : off+n]
	for i := range dst {
		dst[i] = 0
	}
	copy(dst, v)
}

// RowInt64 reads an int64 column from a raw row.
func RowInt64(sch *Schema, row []byte, col int) int64 {
	return int64(binary.LittleEndian.Uint64(row[sch.Offset(col):]))
}

// RowSetInt64 writes an int64 column into a raw row.
func RowSetInt64(sch *Schema, row []byte, col int, v int64) {
	binary.LittleEndian.PutUint64(row[sch.Offset(col):], uint64(v))
}

// RowFloat64 reads a float64 column from a raw row.
func RowFloat64(sch *Schema, row []byte, col int) float64 {
	return float64frombits(binary.LittleEndian.Uint64(row[sch.Offset(col):]))
}

package engine

import "rshuffle/internal/sim"

// Table is an in-memory row store: one node's partition of a relation.
type Table struct {
	Sch  *Schema
	Data []byte
	N    int
}

// NewTable returns an empty table with the given schema.
func NewTable(sch *Schema) *Table { return &Table{Sch: sch} }

// Grow reserves room for rows more rows, so that a generator that knows its
// row count fills the table with one allocation. It returns t.
func (t *Table) Grow(rows int) *Table {
	if need := len(t.Data) + rows*t.Sch.Width(); need > cap(t.Data) {
		t.realloc(need)
	}
	return t
}

// realloc moves the rows into a store of capacity c.
func (t *Table) realloc(c int) {
	data := make([]byte, len(t.Data), c)
	copy(data, t.Data)
	t.Data = data
}

// reserve makes room for n more bytes by doubling the store: append's own
// growth of a large slice is 1.25x a step, which allocates five to six times
// the final size along the way, where doubling allocates twice.
func (t *Table) reserve(n int) {
	if need := len(t.Data) + n; need > cap(t.Data) {
		t.realloc(max(need, 2*cap(t.Data)))
	}
}

// Append adds one raw row.
func (t *Table) Append(row []byte) {
	t.reserve(len(row))
	t.Data = append(t.Data, row...)
	t.N++
}

// AppendBatch adds all rows of b.
func (t *Table) AppendBatch(b *Batch) {
	rows := b.Bytes()
	t.reserve(len(rows))
	t.Data = append(t.Data, rows...)
	t.N += b.N
}

// Row returns the raw bytes of row i.
func (t *Table) Row(i int) []byte {
	w := t.Sch.Width()
	return t.Data[i*w : (i+1)*w]
}

// Bytes returns the total payload size.
func (t *Table) Bytes() int { return len(t.Data) }

// Writer appends typed rows conveniently.
type Writer struct {
	t   *Table
	row []byte
}

// NewWriter returns a writer for t.
func NewWriter(t *Table) *Writer {
	return &Writer{t: t, row: make([]byte, t.Sch.Width())}
}

// SetInt64 sets an int64 column of the scratch row.
func (w *Writer) SetInt64(col int, v int64) { RowSetInt64(w.t.Sch, w.row, col, v) }

// SetFloat64 sets a float64 column of the scratch row.
func (w *Writer) SetFloat64(col int, v float64) {
	RowSetInt64(w.t.Sch, w.row, col, int64(float64bits(v)))
}

// SetStr sets a fixed-string column of the scratch row.
func (w *Writer) SetStr(col int, v string) {
	off := w.t.Sch.Offset(col)
	n := w.t.Sch.Cols[col].Size()
	dst := w.row[off : off+n]
	for i := range dst {
		dst[i] = 0
	}
	copy(dst, v)
}

// Done appends the scratch row to the table.
func (w *Writer) Done() { w.t.Append(w.row) }

// Scan is a morsel-driven parallel table scan: threads grab batches from a
// shared cursor, so work balances across threads automatically (Leis et
// al., morsel-driven parallelism). A batch is a view of the table's own
// rows, not a copy; Operator.Next's contract keeps consumers from writing it.
type Scan struct {
	T *Table
	// Passes repeats the scan the given number of times (the paper's
	// synthetic experiment streams the table ten times); 0 means 1.
	Passes int

	ctx    *Ctx
	cursor int
	pass   int
	out    []*Batch
}

// Schema implements Operator.
func (s *Scan) Schema() *Schema { return s.T.Sch }

// Open implements Operator.
func (s *Scan) Open(ctx *Ctx) {
	s.ctx = ctx
	if s.Passes <= 0 {
		s.Passes = 1
	}
	s.out = threadBatches(s.T.Sch, DefaultBatchTuples, ctx.Threads)
}

// Next implements Operator.
func (s *Scan) Next(p *sim.Proc, tid int) (*Batch, State) {
	w := s.T.Sch.Width()
	for {
		if s.cursor >= s.T.N {
			if s.pass+1 >= s.Passes {
				return nil, Depleted
			}
			s.pass++
			s.cursor = 0
		}
		n := DefaultBatchTuples
		if rem := s.T.N - s.cursor; n > rem {
			n = rem
		}
		out := s.out[tid]
		lo, hi := s.cursor*w, (s.cursor+n)*w
		out.Data, out.N = s.T.Data[lo:hi:hi], n
		s.cursor += n
		s.ctx.ChargeTuples(p, n)
		return out, MoreData
	}
}

// Close implements Operator.
func (s *Scan) Close(p *sim.Proc) {}

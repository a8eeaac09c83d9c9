package col

import (
	"encoding/binary"

	"tez/internal/row"
)

// A table file holds its rows as stripes: batch frames of a few hundred
// to relop.DefaultBatchSize rows, one per record value. Stripe builds one
// while knowing its exact encoded size before each row goes in, so a
// writer can cut stripes to fit the rest of a DFS block; StripeRows reads
// a stream of them back a row at a time.

// Stripe accumulates rows for one batch frame.
type Stripe struct {
	b    *Batch
	cols []chunkSize // per column, what its chunk's length depends on
	next []chunkSize // scratch: cols with the candidate row added
}

// chunkSize tracks what encodeCol will write for a column built by
// AppendValue: the kind it settles on, its nulls, the range of its packed
// values and the bytes of its non-null values.
type chunkSize struct {
	kind  Kind
	nulls int
	lo    int64 // Int64: least and greatest value; Bytes: length
	hi    int64
	heap  int // Bytes: the values' bytes
	boxed int // Any: the non-null values' row.Encode bytes
}

// NewStripe returns an empty stripe.
func NewStripe() *Stripe { return &Stripe{b: NewBatch()} }

// Len is the number of rows added since the last frame.
func (s *Stripe) Len() int { return s.b.Len() }

// Add appends r when the frame holding it would take at most limit bytes,
// and reports whether it did. A row whose width differs from the
// stripe's first row is refused.
func (s *Stripe) Add(r row.Row, limit int) bool {
	if s.b.Len() == 0 {
		s.cols = resize(s.cols, len(r))
		clear(s.cols)
	} else if len(r) != s.b.Width() {
		return false
	}
	n := s.b.Len() + 1
	s.next = append(s.next[:0], s.cols...)
	size := 2 + uvarintSize(uint64(len(r))) + uvarintSize(uint64(n))
	for c, val := range r {
		cs := &s.next[c]
		cs.add(val)
		size += chunkLenSize + cs.size(n)
	}
	if size > limit {
		return false
	}
	s.cols, s.next = s.next, s.cols
	s.b.AppendRow(r)
	return true
}

// AppendFrame appends the stripe's rows as one batch frame and empties
// the stripe.
func (s *Stripe) AppendFrame(dst []byte) []byte {
	dst = EncodeBatch(dst, s.b)
	s.b.Reset()
	return dst
}

// add accounts for one more value, settling the kind as Vector.AppendValue
// does: the first non-null value's kind, Any once two kinds meet.
func (cs *chunkSize) add(v row.Value) {
	var k Kind
	var x int64 // the packed value: an int, or a string's length
	switch v.Kind {
	case row.KindNull:
		cs.nulls++
		return
	case row.KindInt:
		k, x = Int64, v.Int
		cs.boxed += 1 + varintSize(v.Int)
	case row.KindFloat:
		k = Float64
		cs.boxed += 1 + 8
	case row.KindString:
		k, x = Bytes, int64(len(v.Str))
		cs.heap += len(v.Str)
		cs.boxed += 1 + uvarintSize(uint64(len(v.Str))) + len(v.Str)
	}
	switch cs.kind {
	case Unset:
		cs.kind, cs.lo, cs.hi = k, x, x
	case k:
		cs.lo, cs.hi = min(cs.lo, x), max(cs.hi, x)
	default:
		cs.kind = Any
	}
}

// size is the chunk length encodeCol writes for the column's n rows.
func (cs *chunkSize) size(n int) int {
	switch cs.kind {
	case Unset:
		return 1
	case Any:
		return 1 + cs.boxed + cs.nulls // a null is only its kind
	}
	size := 2 // kind, null marker
	if cs.nulls > 0 {
		size += (n + 7) / 8
	}
	switch cs.kind {
	case Float64:
		return size + 8*n
	case Bytes:
		lo := cs.lo
		if cs.nulls > 0 {
			lo = 0 // a null's length
		}
		return size + packedSize(lo, cs.hi, n) + cs.heap
	}
	return size + packedSize(cs.lo, cs.hi, n) // Int64: a null packs as the base
}

func varintSize(x int64) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutVarint(tmp[:], x)
}

func uvarintSize(x uint64) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], x)
}

// ValueReader yields a stream of values: runtime.KVReader's value half.
type ValueReader interface {
	Next() bool
	Value() []byte
	Err() error
}

// StripeRows iterates the rows of a stream of stripes, one stripe per
// value of src (a table file's record reader, or a task's split reader),
// decoding each stripe into one reused batch. It only reads src's values,
// which may be views of DFS blocks; the batch's rows are its own.
type StripeRows struct {
	src ValueReader
	b   *Batch
	i   int
	err error
}

// NewStripeRows reads the stripes src yields.
func NewStripeRows(src ValueReader) *StripeRows {
	return &StripeRows{src: src, b: NewBatch(), i: -1}
}

// Next advances to the next row.
func (r *StripeRows) Next() bool {
	for r.i++; r.i >= r.b.Len(); r.i = 0 {
		if r.err != nil || !r.src.Next() {
			return false
		}
		if r.err = DecodeBatchInto(r.b, r.src.Value(), nil); r.err != nil {
			return false
		}
	}
	return true
}

// Batch is the current row's stripe and Row its row in it: read its
// columns, or re-encode it with AppendRowEncoded.
func (r *StripeRows) Batch() *Batch { return r.b }

// Row is the current row's index in Batch.
func (r *StripeRows) Row() int { return r.i }

// Err reports a corrupt stripe or the source's error.
func (r *StripeRows) Err() error {
	if r.err != nil {
		return r.err
	}
	return r.src.Err()
}

// Package col implements typed columnar record batches for the
// batch-at-a-time relational execution path (DESIGN.md §13). A Batch
// holds one Vector per column; each Vector stores a run of values of a
// single physical kind (int64 / float64 / var-len bytes / bool) with a
// null bitmap overlay, demoting itself to a boxed row.Value
// representation only when a column turns out to be kind-mixed. Filters
// narrow a selection vector instead of moving data; var-len values live
// in a per-vector byte heap indexed by offsets, in the style of the
// shuffle sort arena (library/arena.go).
//
// The row and key formats belong to the row package: the encoders here
// write them with row's appenders (AppendRowEncoded == row.Encode,
// AppendKeyEncoded == row.EncodeKey), so the vectorized engine produces
// byte-identical output to the row-at-a-time engine.
package col

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"

	"tez/internal/row"
)

// Kind is the physical representation of a Vector.
type Kind uint8

// Vector kinds. Unset means only nulls have been appended so far; Any is
// the boxed fallback for kind-mixed columns (the row model is dynamically
// typed, so a column may legally hold e.g. both ints and strings).
const (
	Unset Kind = iota
	Int64
	Float64
	Bytes
	Bool
	Any
)

func (k Kind) String() string {
	switch k {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case Bytes:
		return "bytes"
	case Bool:
		return "bool"
	case Any:
		return "any"
	default:
		return "unset"
	}
}

// Vector is one column of a Batch. Exactly one payload slice is active,
// selected by kind; payload slices are exported so kernels can range over
// them directly. Nulls are a bitmap overlay (payload holds a zero value
// at null positions, except Any, which stores row.Null() inline).
type Vector struct {
	kind  Kind
	n     int
	konst bool // logical length n, physical storage one element

	Ints   []int64
	Floats []float64
	Bits   []uint64 // Bool payload, one bit per row
	Offs   []uint32 // Bytes: n+1 offsets into Heap (batches are small; 4 GiB heap is unreachable)
	Heap   []byte
	Vals   []row.Value // Any

	nulls []uint64 // bit set = null; nil when no nulls seen
}

// Kind returns the physical representation.
func (v *Vector) Kind() Kind { return v.kind }

// Len is the logical length.
func (v *Vector) Len() int { return v.n }

// IsConst reports whether the vector stores a single repeated value.
func (v *Vector) IsConst() bool { return v.konst }

// HasNulls reports whether any null bit is set.
func (v *Vector) HasNulls() bool {
	for _, w := range v.nulls {
		if w != 0 {
			return true
		}
	}
	return false
}

func (v *Vector) phys(i int) int {
	if v.konst {
		return 0
	}
	return i
}

// IsNull reports whether row i is null.
func (v *Vector) IsNull(i int) bool {
	i = v.phys(i)
	switch v.kind {
	case Unset:
		return true
	case Any:
		return v.Vals[i].Kind == row.KindNull
	}
	return bitGet(v.nulls, i)
}

// Int returns the int64 payload at i (kind Int64, or Bool as 0/1).
func (v *Vector) Int(i int) int64 {
	i = v.phys(i)
	if v.kind == Bool {
		if bitGet(v.Bits, i) {
			return 1
		}
		return 0
	}
	return v.Ints[i]
}

// Float returns the float64 payload at i.
func (v *Vector) Float(i int) float64 { return v.Floats[v.phys(i)] }

// Bool returns the bool payload at i.
func (v *Vector) Bool(i int) bool { return bitGet(v.Bits, v.phys(i)) }

// BytesAt returns the var-len payload at i without copying.
func (v *Vector) BytesAt(i int) []byte {
	i = v.phys(i)
	return v.Heap[v.Offs[i]:v.Offs[i+1]]
}

// NullWord returns word w of the null bitmap (0 when absent).
func (v *Vector) NullWord(w int) uint64 {
	if w < len(v.nulls) {
		return v.nulls[w]
	}
	return 0
}

// Value materializes row i as a row.Value (allocates for Bytes).
func (v *Vector) Value(i int) row.Value {
	i = v.phys(i)
	switch v.kind {
	case Any:
		return v.Vals[i]
	case Unset:
		return row.Null()
	}
	if bitGet(v.nulls, i) {
		return row.Null()
	}
	switch v.kind {
	case Int64:
		return row.Int(v.Ints[i])
	case Float64:
		return row.Float(v.Floats[i])
	case Bytes:
		return row.String(string(v.Heap[v.Offs[i]:v.Offs[i+1]]))
	case Bool:
		if bitGet(v.Bits, i) {
			return row.Int(1)
		}
		return row.Int(0)
	}
	return row.Null()
}

// Truthy mirrors relop truthiness: null, 0, 0.0 and "" are false.
func (v *Vector) Truthy(i int) bool {
	i = v.phys(i)
	switch v.kind {
	case Unset:
		return false
	case Any:
		val := v.Vals[i]
		switch val.Kind {
		case row.KindInt:
			return val.Int != 0
		case row.KindFloat:
			return val.Float != 0
		case row.KindString:
			return val.Str != ""
		}
		return false
	}
	if bitGet(v.nulls, i) {
		return false
	}
	switch v.kind {
	case Int64:
		return v.Ints[i] != 0
	case Float64:
		return v.Floats[i] != 0
	case Bytes:
		return v.Offs[i] != v.Offs[i+1]
	case Bool:
		return bitGet(v.Bits, i)
	}
	return false
}

// NumAt returns the numeric view of row i for arithmetic kernels: isInt
// follows the row model (Int and Bool are integer; Float is not; Bytes
// coerces to float 0 like Value.AsFloat on strings).
func (v *Vector) NumAt(i int) (iv int64, fv float64, isInt, null bool) {
	i = v.phys(i)
	switch v.kind {
	case Unset:
		return 0, 0, false, true
	case Any:
		val := v.Vals[i]
		switch val.Kind {
		case row.KindNull:
			return 0, 0, false, true
		case row.KindInt:
			return val.Int, float64(val.Int), true, false
		case row.KindFloat:
			return 0, val.Float, false, false
		}
		return 0, 0, false, false // string: AsFloat == 0
	}
	if bitGet(v.nulls, i) {
		return 0, 0, false, true
	}
	switch v.kind {
	case Int64:
		x := v.Ints[i]
		return x, float64(x), true, false
	case Float64:
		return 0, v.Floats[i], false, false
	case Bool:
		var x int64
		if bitGet(v.Bits, i) {
			x = 1
		}
		return x, float64(x), true, false
	}
	return 0, 0, false, false
}

// CompareAt orders row i of a against row j of b under row.Compare
// semantics (null < numeric < string), without materializing values.
func CompareAt(a *Vector, i int, b *Vector, j int) int {
	ra := a.rankAt(i)
	if c := cmp.Compare(ra, b.rankAt(j)); c != 0 {
		return c
	}
	switch ra {
	case 0:
		return 0
	case 2:
		return bytes.Compare(a.bytesView(i), b.bytesView(j))
	}
	ai, af, aInt, _ := a.NumAt(i)
	bi, bf, bInt, _ := b.NumAt(j)
	return row.CompareNumeric(ai, af, aInt, bi, bf, bInt)
}

// rankAt is row i's row.Rank.
func (v *Vector) rankAt(i int) int {
	k := row.KindInt // every other typed kind is numeric
	switch {
	case v.IsNull(i):
		k = row.KindNull
	case v.kind == Bytes:
		k = row.KindString
	case v.kind == Any:
		k = v.Vals[v.phys(i)].Kind
	}
	return row.Rank(k)
}

// bytesView returns the string payload at i without copying when
// possible (Bytes heap slice, or the Any value's string).
func (v *Vector) bytesView(i int) []byte {
	i = v.phys(i)
	if v.kind == Bytes {
		return v.Heap[v.Offs[i]:v.Offs[i+1]]
	}
	return []byte(v.Vals[i].Str) // Any holding a string; rare path
}

// --- construction -----------------------------------------------------

// Const builds a logical-length-n vector repeating one value.
func Const(val row.Value, n int) Vector {
	v := Vector{konst: true}
	v.AppendValue(val)
	v.n = n
	return v
}

// ConstNull builds an all-null vector of logical length n.
func ConstNull(n int) Vector {
	return Vector{konst: true, kind: Unset, n: n}
}

// NewBool builds a dense all-false bool vector of length n (the cmp /
// logic kernels' output shape).
func NewBool(n int) Vector {
	return Vector{kind: Bool, n: n, Bits: make([]uint64, (n+63)/64)}
}

// NewInts builds a dense zeroed int64 vector of length n.
func NewInts(n int) Vector {
	return Vector{kind: Int64, n: n, Ints: make([]int64, n)}
}

// NewFloats builds a dense zeroed float64 vector of length n.
func NewFloats(n int) Vector {
	return Vector{kind: Float64, n: n, Floats: make([]float64, n)}
}

// SetTrue sets bool payload bit i.
func (v *Vector) SetTrue(i int) { v.Bits[i>>6] |= 1 << (uint(i) & 63) }

// SetNullAt marks row i null (payload, if any, keeps its zero value).
func (v *Vector) SetNullAt(i int) { v.nulls = bitSet(v.nulls, i) }

// SetNullWord installs word w of the null bitmap directly (fast kernels
// propagating operand null masks).
func (v *Vector) SetNullWord(w int, bits uint64) {
	for len(v.nulls) <= w {
		v.nulls = append(v.nulls, 0)
	}
	v.nulls[w] = bits
}

// reset empties the vector for reuse, keeping capacity. Null bitmap
// words are recreated zeroed on demand, so no explicit clear is needed.
func (v *Vector) reset() {
	v.kind = Unset
	v.n = 0
	v.konst = false
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	v.Bits = v.Bits[:0]
	v.Offs = v.Offs[:0]
	v.Heap = v.Heap[:0]
	v.Vals = v.Vals[:0]
	v.nulls = v.nulls[:0]
}

// truncate drops rows ≥ n (rollback after a partial decode error).
func (v *Vector) truncate(n int) {
	v.n = n
	if v.konst {
		return
	}
	switch v.kind {
	case Int64:
		v.Ints = v.Ints[:n]
	case Float64:
		v.Floats = v.Floats[:n]
	case Bytes:
		v.Offs = v.Offs[:n+1]
		v.Heap = v.Heap[:v.Offs[n]]
	case Any:
		v.Vals = v.Vals[:n]
	}
	// Clear stale null bits at and above n.
	for w := range v.nulls {
		base := w * 64
		if base >= n {
			v.nulls[w] = 0
		} else if base+64 > n {
			v.nulls[w] &= (1 << uint(n-base)) - 1
		}
	}
}

// promote moves an Unset vector (n all-null rows) to a concrete kind,
// backfilling zero payloads under the existing null bits.
func (v *Vector) promote(k Kind) {
	v.kind = k
	switch k {
	case Int64:
		for i := 0; i < v.n; i++ {
			v.Ints = append(v.Ints, 0)
		}
	case Float64:
		for i := 0; i < v.n; i++ {
			v.Floats = append(v.Floats, 0)
		}
	case Bytes:
		for i := 0; i <= v.n; i++ {
			v.Offs = append(v.Offs, uint32(len(v.Heap)))
		}
	case Bool:
		for len(v.Bits) < (v.n+63)/64 {
			v.Bits = append(v.Bits, 0)
		}
	case Any:
		for i := 0; i < v.n; i++ {
			v.Vals = append(v.Vals, row.Null())
		}
	}
}

// toAny demotes to the boxed representation, preserving exact value
// kinds (Int 5 and Float 5.0 encode differently on the wire even though
// they compare equal, so demotion must not coerce).
func (v *Vector) toAny() {
	if v.kind == Any {
		return
	}
	vals := v.Vals[:0]
	for i := 0; i < v.n; i++ {
		vals = append(vals, v.Value(i))
	}
	v.reset()
	v.kind = Any
	v.Vals = vals
	v.n = len(vals)
}

// AppendNull appends a null row.
func (v *Vector) AppendNull() {
	switch v.kind {
	case Unset:
		// no payload yet
	case Int64:
		v.Ints = append(v.Ints, 0)
	case Float64:
		v.Floats = append(v.Floats, 0)
	case Bytes:
		v.Offs = append(v.Offs, uint32(len(v.Heap)))
	case Bool:
		for len(v.Bits) < (v.n+64)/64 {
			v.Bits = append(v.Bits, 0)
		}
	case Any:
		v.Vals = append(v.Vals, row.Null())
		v.n++
		return
	}
	v.nulls = bitSet(v.nulls, v.n)
	v.n++
}

// AppendInt appends an int64 row, demoting on kind mismatch.
func (v *Vector) AppendInt(x int64) {
	switch v.kind {
	case Unset:
		v.promote(Int64)
		fallthrough
	case Int64:
		v.Ints = append(v.Ints, x)
		v.n++
	case Any:
		v.Vals = append(v.Vals, row.Int(x))
		v.n++
	default:
		v.toAny()
		v.AppendInt(x)
	}
}

// AppendFloat appends a float64 row, demoting on kind mismatch.
func (v *Vector) AppendFloat(x float64) {
	switch v.kind {
	case Unset:
		v.promote(Float64)
		fallthrough
	case Float64:
		v.Floats = append(v.Floats, x)
		v.n++
	case Any:
		v.Vals = append(v.Vals, row.Float(x))
		v.n++
	default:
		v.toAny()
		v.AppendFloat(x)
	}
}

// AppendBytes appends a var-len row (copied into the heap), demoting on
// kind mismatch.
func (v *Vector) AppendBytes(s []byte) {
	switch v.kind {
	case Unset:
		v.promote(Bytes)
		fallthrough
	case Bytes:
		v.Heap = append(v.Heap, s...)
		v.Offs = append(v.Offs, uint32(len(v.Heap)))
		v.n++
	case Any:
		v.Vals = append(v.Vals, row.String(string(s)))
		v.n++
	default:
		v.toAny()
		v.AppendBytes(s)
	}
}

// AppendBool appends a bool row, demoting on kind mismatch (bools box as
// Int 0/1, matching the row engine's comparison results).
func (v *Vector) AppendBool(x bool) {
	switch v.kind {
	case Unset:
		v.promote(Bool)
		fallthrough
	case Bool:
		for len(v.Bits) < (v.n+64)/64 {
			v.Bits = append(v.Bits, 0)
		}
		if x {
			v.Bits[v.n>>6] |= 1 << (uint(v.n) & 63)
		}
		v.n++
	case Any:
		var b int64
		if x {
			b = 1
		}
		v.Vals = append(v.Vals, row.Int(b))
		v.n++
	default:
		v.toAny()
		v.AppendBool(x)
	}
}

// AppendValue appends a row.Value, choosing the typed representation and
// demoting to Any on kind mixes.
func (v *Vector) AppendValue(val row.Value) {
	switch val.Kind {
	case row.KindNull:
		v.AppendNull()
	case row.KindInt:
		v.AppendInt(val.Int)
	case row.KindFloat:
		v.AppendFloat(val.Float)
	case row.KindString:
		if v.kind == Any {
			v.Vals = append(v.Vals, val)
			v.n++
			return
		}
		v.AppendBytes([]byte(val.Str))
	}
}

// AppendFrom appends row i of src (any kind, nulls preserved).
func (v *Vector) AppendFrom(src *Vector, i int) {
	if src.IsNull(i) {
		v.AppendNull()
		return
	}
	switch src.kind {
	case Int64:
		v.AppendInt(src.Ints[src.phys(i)])
	case Float64:
		v.AppendFloat(src.Floats[src.phys(i)])
	case Bytes:
		v.AppendBytes(src.BytesAt(i))
	case Bool:
		v.AppendBool(src.Bool(i))
	case Any:
		v.AppendValue(src.Vals[src.phys(i)])
	}
}

// --- null bitmap helpers ---------------------------------------------

func bitGet(bits []uint64, i int) bool {
	w := i >> 6
	return w < len(bits) && bits[w]&(1<<(uint(i)&63)) != 0
}

func bitSet(bits []uint64, i int) []uint64 {
	w := i >> 6
	for len(bits) <= w {
		bits = append(bits, 0)
	}
	bits[w] |= 1 << (uint(i) & 63)
	return bits
}

// --- Batch ------------------------------------------------------------

// Batch is a set of column vectors plus a selection vector. sel == nil
// means all n rows are live; after a filter, sel lists the live physical
// row indices in order.
type Batch struct {
	cols   []Vector
	width  int // -1 until the first row fixes it
	n      int
	sel    []int32
	selBuf []int32 // spare buffer so Filter ping-pongs without allocating
}

// NewBatch returns an empty batch with no width fixed yet.
func NewBatch() *Batch { return &Batch{width: -1} }

// Width is the column count (0 for a width-0 batch, -1 when unset).
func (b *Batch) Width() int {
	if b.width < 0 {
		return 0
	}
	return b.width
}

// Len is the physical row count.
func (b *Batch) Len() int { return b.n }

// Live is the selected row count.
func (b *Batch) Live() int {
	if b.sel == nil {
		return b.n
	}
	return len(b.sel)
}

// RowAt maps live index k to a physical row index.
func (b *Batch) RowAt(k int) int {
	if b.sel == nil {
		return k
	}
	return int(b.sel[k])
}

// Sel exposes the selection vector (nil = dense).
func (b *Batch) Sel() []int32 { return b.sel }

// Col returns column i.
func (b *Batch) Col(i int) *Vector { return &b.cols[i] }

// Reset empties the batch for reuse, keeping storage. The width unlocks
// so the next appended row fixes it again.
func (b *Batch) Reset() {
	for i := range b.cols {
		b.cols[i].reset()
	}
	b.width = -1
	b.n = 0
	b.sel = nil
}

func (b *Batch) setWidth(w int) {
	for len(b.cols) < w {
		b.cols = append(b.cols, Vector{})
	}
	for i := 0; i < w; i++ {
		b.cols[i].reset()
	}
	b.width = w
}

// EnsureWidth fixes the width on an empty batch (join output batches
// know their shape before the first row).
func (b *Batch) EnsureWidth(w int) {
	if b.width != w {
		b.setWidth(w)
	}
}

// SetRowCount declares the physical row count after appending directly
// into column vectors (join fan-out construction).
func (b *Batch) SetRowCount(n int) { b.n = n }

// AppendRow appends a decoded row. Returns false (without appending) on
// a width mismatch — the caller flushes and retries.
func (b *Batch) AppendRow(r row.Row) bool {
	if b.width < 0 {
		b.setWidth(len(r))
	}
	if len(r) != b.width {
		return false
	}
	for i := range r {
		b.cols[i].AppendValue(r[i])
	}
	b.n++
	return true
}

// AppendEncoded parses one row.Encode payload straight into the column
// vectors, without materializing a row.Row. Returns (false, nil) on a
// width mismatch; a corrupt payload rolls the batch back to its prior
// row count and returns the error. The header is checked by
// row.DecodeHeader; the elements are parsed inline, per kind, because
// this is the decode every scanned and shuffled row takes, and a refused
// row's error is row.Decode's.
func (b *Batch) AppendEncoded(buf []byte) (bool, error) {
	cols, pos, err := row.DecodeHeader(buf)
	if err != nil {
		return false, err
	}
	if b.width < 0 {
		b.setWidth(cols)
	}
	if cols != b.width {
		return false, nil
	}
	for i := 0; i < b.width; i++ {
		if pos >= len(buf) {
			return false, b.refuse(buf)
		}
		kind := row.Kind(buf[pos])
		pos++
		v := &b.cols[i]
		switch kind {
		case row.KindNull:
			v.AppendNull()
		case row.KindInt:
			x, n := binary.Varint(buf[pos:])
			if n <= 0 {
				return false, b.refuse(buf)
			}
			pos += n
			v.AppendInt(x)
		case row.KindFloat:
			if pos+8 > len(buf) {
				return false, b.refuse(buf)
			}
			v.AppendFloat(beFloat(buf[pos:]))
			pos += 8
		case row.KindString:
			l, n := binary.Uvarint(buf[pos:])
			if n <= 0 || uint64(len(buf)-pos-n) < l {
				return false, b.refuse(buf)
			}
			pos += n
			v.AppendBytes(buf[pos : pos+int(l)])
			pos += int(l)
		default:
			return false, b.refuse(buf)
		}
	}
	b.n++
	return true, nil
}

// refuse rolls back the row the inline parse rejected and returns
// row.Decode's reason for rejecting it.
func (b *Batch) refuse(buf []byte) error {
	b.rollback()
	if _, err := row.Decode(buf); err != nil {
		return err
	}
	return fmt.Errorf("col: row decoders disagree on %x", buf)
}

// rollback truncates every column to the batch's committed row count
// after a mid-row decode error.
func (b *Batch) rollback() {
	for i := 0; i < b.width; i++ {
		if b.cols[i].n > b.n {
			b.cols[i].truncate(b.n)
		}
	}
}

// Filter narrows the selection to live rows where pred is truthy. The
// two selection buffers ping-pong, so repeated filters do not allocate.
func (b *Batch) Filter(pred *Vector) {
	out := b.selBuf[:0]
	if out == nil {
		// nil sel means "dense"; an empty selection must stay non-nil.
		out = []int32{}
	}
	if b.sel == nil {
		for i := 0; i < b.n; i++ {
			if pred.Truthy(i) {
				out = append(out, int32(i))
			}
		}
	} else {
		for _, i := range b.sel {
			if pred.Truthy(int(i)) {
				out = append(out, i)
			}
		}
	}
	b.selBuf = b.sel
	b.sel = out
}

// Gather empties b and fills it, densely, with src's physical rows rows,
// in that order: the rows AppendFrom would copy one at a time, with a
// null-free typed column copied in one loop.
func (b *Batch) Gather(src *Batch, rows []int32) {
	b.Reset()
	b.EnsureWidth(src.Width())
	for c := range b.width {
		v, sv := &b.cols[c], &src.cols[c]
		switch {
		case sv.konst || sv.HasNulls():
			for _, r := range rows {
				v.AppendFrom(sv, int(r))
			}
		case sv.kind == Int64:
			for _, r := range rows {
				v.AppendInt(sv.Ints[r])
			}
		case sv.kind == Float64:
			for _, r := range rows {
				v.AppendFloat(sv.Floats[r])
			}
		case sv.kind == Bytes:
			for _, r := range rows {
				v.AppendBytes(sv.Heap[sv.Offs[r]:sv.Offs[r+1]])
			}
		default:
			for _, r := range rows {
				v.AppendFrom(sv, int(r))
			}
		}
	}
	b.n = len(rows)
}

// MaterializeRow boxes physical row i as a row.Row.
func (b *Batch) MaterializeRow(i int) row.Row {
	r := make(row.Row, b.Width())
	for c := range r {
		r[c] = b.cols[c].Value(i)
	}
	return r
}

// FromVectors wraps pre-built columns (all of physical length n) into a
// batch with the given selection.
func FromVectors(n int, sel []int32, cols []Vector) *Batch {
	return &Batch{cols: cols, width: len(cols), n: n, sel: sel}
}

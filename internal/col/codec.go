package col

import (
	"encoding/binary"
	"fmt"
	"math"
	mathbits "math/bits"
	"slices"

	"tez/internal/row"
)

// Batch wire format: the relop broadcast and hash edges, and the stripes
// of a table file (one frame per record value). Self-describing like
// library.DMInfo.Codec: a magic byte and a version lead the frame, then
// each column declares its own physical kind, so a decoder needs no
// out-of-band schema and old readers fail loudly rather than misparse.
// Each column chunk is preceded by its byte length, so a reader that
// wants only some columns steps over the others unparsed.
//
//	0xB5 version=3
//	uvarint width  uvarint nrows        (selection applied on encode)
//	per column:
//	  uint32 little-endian length of the chunk that follows
//	  kind byte (Kind)
//	  nulls byte 0|1, then ceil(nrows/8) bitmap bytes when 1
//	    (absent for Unset and Any)
//	  payload:
//	    Unset   — nothing (all rows null)
//	    Int64   — nrows packed values (0 delta at null positions)
//	    Float64 — nrows big-endian float64s
//	    Bytes   — nrows packed lengths (0 at null positions), then the
//	              non-null values' bytes concatenated
//	    Bool    — ceil(nrows/8) bitmap bytes
//	    Any     — nrows of row.Encode value elements
//
// Packed values are frame-of-reference bit-packed: a varint base (the
// least non-null value), a width byte w, then ceil(nrows*w/8) bytes
// holding each value minus the base in w bits, LSB-first. w is 1–56 or
// 64, so an 8-byte load always holds a whole field, and every row costs
// at least one bit: a frame's decoded vectors stay within a constant
// multiple of its bytes. An int column decodes as one bulk unpack, and a
// bytes column as an unpack, a prefix sum and one copy of its heap.
const (
	batchMagic   = 0xB5
	batchVersion = 3
	// chunkLenSize is the width of a column chunk's length prefix.
	chunkLenSize = 4
	// maxPackedWidth is the widest packed field short of 64 bits: at any
	// bit offset (at most 7) it fits in one 8-byte load.
	maxPackedWidth = 56
)

// MaxDecodeRows bounds the claimed row count a frame may declare. All-null
// (Unset) columns cost zero wire bytes per row, so without this cap a
// 9-byte hostile frame could claim 2^60 rows and stall every consumer
// that walks the decoded batch. The producers frame at most
// relop.DefaultBatchSize (1024) rows.
const MaxDecodeRows = 1 << 20

// EncodeBatch appends the live rows of b as one batch frame. Constant
// vectors are materialized (the frame is always dense).
func EncodeBatch(dst []byte, b *Batch) []byte {
	live := b.Live()
	dst = append(dst, batchMagic, batchVersion)
	dst = binary.AppendUvarint(dst, uint64(b.Width()))
	dst = binary.AppendUvarint(dst, uint64(live))
	for c := 0; c < b.Width(); c++ {
		at := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		dst = encodeCol(dst, &b.cols[c], b, live)
		binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-chunkLenSize))
	}
	return dst
}

// EncodeRows appends the physical rows of b listed in rows, in that order,
// as one batch frame; b's own selection is ignored.
func EncodeRows(dst []byte, b *Batch, rows []int32) []byte {
	view := Batch{cols: b.cols, width: b.width, n: b.n, sel: rows}
	return EncodeBatch(dst, &view)
}

func encodeCol(dst []byte, v *Vector, b *Batch, live int) []byte {
	kind := v.kind
	if kind == Unset || (v.konst && v.kind != Any && v.IsNull(0)) {
		return append(dst, byte(Unset))
	}
	dst = append(dst, byte(kind))

	// Null bitmap over live rows (Any carries nulls in its values).
	nulls := false
	if kind != Any && !v.konst && v.HasNulls() {
		for k := 0; k < live && !nulls; k++ {
			nulls = bitGet(v.nulls, b.RowAt(k))
		}
	}
	if nulls {
		dst = append(dst, 1)
		start := len(dst)
		dst = appendZeros(dst, (live+7)/8)
		for k := 0; k < live; k++ {
			if bitGet(v.nulls, b.RowAt(k)) {
				dst[start+k/8] |= 1 << (uint(k) % 8)
			}
		}
	} else if kind != Any {
		dst = append(dst, 0)
	}

	switch kind {
	case Int64:
		return encodeInts(dst, v, b, live, nulls)
	case Float64:
		var fb [8]byte
		for k := 0; k < live; k++ {
			binary.BigEndian.PutUint64(fb[:], math.Float64bits(v.Float(b.RowAt(k))))
			dst = append(dst, fb[:]...)
		}
	case Bytes:
		return encodeBytes(dst, v, b, live, nulls)
	case Bool:
		start := len(dst)
		dst = appendZeros(dst, (live+7)/8)
		for k := 0; k < live; k++ {
			i := b.RowAt(k)
			if !v.IsNull(i) && v.Bool(i) {
				dst[start+k/8] |= 1 << (uint(k) % 8)
			}
		}
	case Any:
		for k := 0; k < live; k++ {
			dst = row.AppendValue(dst, v.Vals[v.phys(b.RowAt(k))])
		}
	}
	return dst
}

// packChunk is how many values a sparse encode gathers before packing
// them: a selection or nulls leave no slice to pack in place.
const packChunk = 128

// encodeInts writes an Int64 column's packed values: in place when the
// rows are dense and null-free, else gathered a chunk at a time with a
// null written as the base.
func encodeInts(dst []byte, v *Vector, b *Batch, live int, nulls bool) []byte {
	if v.konst {
		return appendConstPacked(dst, v.Ints[0], live)
	}
	if b.sel == nil && !nulls {
		xs := v.Ints[:live]
		lo, hi := minMax(xs)
		w := packWidth(lo, hi)
		dst = appendPackHead(dst, lo, w, live)
		var p packer
		return p.flush(p.pack(dst, xs, lo, w))
	}
	var lo, hi int64
	seen := false
	for k := 0; k < live; k++ {
		i := b.RowAt(k)
		if nulls && bitGet(v.nulls, i) {
			continue
		}
		x := v.Ints[i]
		if !seen {
			lo, hi, seen = x, x, true
		}
		lo, hi = min(lo, x), max(hi, x)
	}
	w := packWidth(lo, hi)
	dst = appendPackHead(dst, lo, w, live)
	var p packer
	var buf [packChunk]int64
	for k := 0; k < live; k += packChunk {
		chunk := buf[:min(packChunk, live-k)]
		for j := range chunk {
			i := b.RowAt(k + j)
			if nulls && bitGet(v.nulls, i) {
				chunk[j] = lo
			} else {
				chunk[j] = v.Ints[i]
			}
		}
		dst = p.pack(dst, chunk, lo, w)
	}
	return p.flush(dst)
}

// encodeBytes writes a Bytes column's packed lengths and then its heap:
// one copy of the vector's heap when the rows are dense and null-free.
func encodeBytes(dst []byte, v *Vector, b *Batch, live int, nulls bool) []byte {
	if v.konst {
		s := v.BytesAt(0)
		dst = appendConstPacked(dst, int64(len(s)), live)
		for k := 0; k < live; k++ {
			dst = append(dst, s...)
		}
		return dst
	}
	dense := b.sel == nil && !nulls
	length := func(k int) int64 {
		i := b.RowAt(k)
		if nulls && bitGet(v.nulls, i) {
			return 0
		}
		return int64(v.Offs[i+1] - v.Offs[i])
	}
	var lo, hi int64
	if dense {
		lo, hi = lengthRange(v.Offs[:live+1])
	} else {
		for k := 0; k < live; k++ {
			l := length(k)
			if k == 0 {
				lo, hi = l, l
			}
			lo, hi = min(lo, l), max(hi, l)
		}
	}
	w := packWidth(lo, hi)
	dst = appendPackHead(dst, lo, w, live)
	var p packer
	var buf [packChunk]int64
	for k := 0; k < live; k += packChunk {
		chunk := buf[:min(packChunk, live-k)]
		if dense {
			offs := v.Offs[k : k+len(chunk)+1]
			for j := range chunk {
				chunk[j] = int64(offs[j+1] - offs[j])
			}
		} else {
			for j := range chunk {
				chunk[j] = length(k + j)
			}
		}
		dst = p.pack(dst, chunk, lo, w)
	}
	dst = p.flush(dst)
	if dense {
		return append(dst, v.Heap[v.Offs[0]:v.Offs[live]]...)
	}
	for k := 0; k < live; k++ {
		if i := b.RowAt(k); !nulls || !bitGet(v.nulls, i) {
			dst = append(dst, v.Heap[v.Offs[i]:v.Offs[i+1]]...)
		}
	}
	return dst
}

func minMax(xs []int64) (lo, hi int64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// lengthRange is the least and greatest length of the values offs bounds.
func lengthRange(offs []uint32) (lo, hi int64) {
	if len(offs) < 2 {
		return 0, 0
	}
	l, h := offs[1]-offs[0], offs[1]-offs[0]
	for j := 2; j < len(offs); j++ {
		d := offs[j] - offs[j-1]
		l, h = min(l, d), max(h, d)
	}
	return int64(l), int64(h)
}

// packWidth is the field width that holds every value in [lo, hi] less
// lo: at least one bit, and 64 once it passes maxPackedWidth.
func packWidth(lo, hi int64) uint {
	w := uint(mathbits.Len64(uint64(hi - lo)))
	switch {
	case w == 0:
		return 1
	case w > maxPackedWidth:
		return 64
	}
	return w
}

// packedSize is the bytes of n packed values spanning [lo, hi].
func packedSize(lo, hi int64, n int) int {
	return varintSize(lo) + 1 + (n*int(packWidth(lo, hi))+7)/8
}

// appendPackHead appends a packed run's base and width, and makes room
// for its n fields.
func appendPackHead(dst []byte, base int64, w uint, n int) []byte {
	dst = binary.AppendVarint(dst, base)
	dst = append(dst, byte(w))
	return slices.Grow(dst, (n*int(w)+7)/8)
}

// appendConstPacked appends n packed copies of x: base x, all deltas 0.
func appendConstPacked(dst []byte, x int64, n int) []byte {
	dst = binary.AppendVarint(dst, x)
	dst = append(dst, 1)
	return appendZeros(dst, (n+7)/8)
}

func appendZeros(dst []byte, n int) []byte {
	dst = slices.Grow(dst, n)
	at := len(dst)
	dst = dst[:at+n]
	clear(dst[at:])
	return dst
}

// packer appends fields LSB-first across calls, a 64-bit word at a time.
type packer struct {
	acc   uint64
	nbits uint
}

// pack appends xs less base, w bits each. Every x-base must fit in w bits.
func (p *packer) pack(dst []byte, xs []int64, base int64, w uint) []byte {
	acc, nbits := p.acc, p.nbits
	for _, x := range xs {
		d := uint64(x - base)
		acc |= d << nbits
		if nbits += w; nbits >= 64 {
			dst = binary.LittleEndian.AppendUint64(dst, acc)
			nbits -= 64
			acc = d >> (w - nbits) // 0 when the field ended the word
		}
	}
	p.acc, p.nbits = acc, nbits
	return dst
}

// flush appends the bytes of the last, partial word.
func (p *packer) flush(dst []byte) []byte {
	for ; p.nbits > 0; p.nbits -= min(p.nbits, 8) {
		dst = append(dst, byte(p.acc))
		p.acc >>= 8
	}
	return dst
}

// DecodeBatch parses one batch frame into a fresh dense batch.
func DecodeBatch(buf []byte) (*Batch, error) {
	b := NewBatch()
	if err := DecodeBatchInto(b, buf, nil); err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeBatchInto parses one batch frame into b, reusing its storage, so a
// warm batch decodes without allocating. Only the columns listed in cols
// (ascending; nil lists every column) are decoded; each other column
// becomes a null constant of the frame's length, its chunk skipped
// unread, and a listed column the frame does not have is ignored.
// Trailing bytes after the frame are ignored (mirroring row.Decode).
// Every length is validated against the remaining input before any
// allocation, so hostile frames cannot demand unbounded memory; a column
// must use exactly the bytes its length claims. After an error b holds
// nothing to read until its next decode or Reset. buf is only read, and b
// keeps no reference to it: a table stripe is a view of its DFS block.
func DecodeBatchInto(b *Batch, buf []byte, cols []int) error {
	if len(buf) < 2 || buf[0] != batchMagic {
		return fmt.Errorf("col: not a batch frame")
	}
	if buf[1] != batchVersion {
		return fmt.Errorf("col: unsupported batch version %d", buf[1])
	}
	pos := 2
	width, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return fmt.Errorf("col: corrupt batch width")
	}
	pos += n
	rows, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return fmt.Errorf("col: corrupt batch row count")
	}
	pos += n
	if rows > MaxDecodeRows {
		return fmt.Errorf("col: batch claims %d rows (max %d)", rows, MaxDecodeRows)
	}
	// Each column costs at least its length and its kind byte.
	if width > uint64(len(buf)-pos)/(chunkLenSize+1) {
		return fmt.Errorf("col: batch width %d exceeds frame", width)
	}
	b.setWidth(int(width))
	b.n, b.sel = int(rows), nil
	for c := 0; c < int(width); c++ {
		if len(buf)-pos < chunkLenSize {
			return fmt.Errorf("col %d: truncated column length", c)
		}
		l := binary.LittleEndian.Uint32(buf[pos:])
		pos += chunkLenSize
		if uint64(l) > uint64(len(buf)-pos) {
			return fmt.Errorf("col %d: length %d exceeds the %d bytes left", c, l, len(buf)-pos)
		}
		chunk := buf[pos : pos+int(l)]
		pos += int(l)
		v := &b.cols[c]
		if cols != nil {
			for len(cols) > 0 && cols[0] < c {
				cols = cols[1:]
			}
			if len(cols) == 0 || cols[0] != c {
				v.konst, v.n = true, int(rows) // reset left it Unset: a null constant
				continue
			}
		}
		if err := decodeCol(v, chunk, int(rows)); err != nil {
			return fmt.Errorf("col %d: %w", c, err)
		}
	}
	return nil
}

// decodeCol parses one column chunk into the reset vector v, a column at
// a time into storage sized for rows up front.
func decodeCol(v *Vector, buf []byte, rows int) error {
	if len(buf) == 0 {
		return fmt.Errorf("col: truncated column header")
	}
	kind := Kind(buf[0])
	pos := 1
	if kind > Any {
		return fmt.Errorf("col: unknown column kind %d", kind)
	}
	var nulls []byte
	if kind != Unset && kind != Any {
		if pos >= len(buf) {
			return fmt.Errorf("col: truncated null marker")
		}
		marker := buf[pos]
		pos++
		if marker > 1 {
			return fmt.Errorf("col: corrupt null marker %d", marker)
		}
		if marker == 1 {
			nb := (rows + 7) / 8
			if len(buf)-pos < nb {
				return fmt.Errorf("col: truncated null bitmap")
			}
			nulls = buf[pos : pos+nb]
			pos += nb
		}
	}
	v.kind, v.n = kind, rows

	switch kind {
	case Unset:
		v.konst = true
	case Int64:
		base, w, area, n, err := packedRun(buf[pos:], rows)
		if err != nil {
			return err
		}
		pos += n
		v.Ints = resize(v.Ints, rows)
		unpack(v.Ints, area, w, base)
	case Float64:
		if rows > (len(buf)-pos)/8 {
			return fmt.Errorf("col: float column larger than frame")
		}
		v.Floats = resize(v.Floats, rows)
		for k := range v.Floats {
			v.Floats[k] = beFloat(buf[pos:])
			pos += 8
		}
	case Bytes:
		n, err := decodeBytes(v, buf[pos:], rows, nulls)
		if err != nil {
			return err
		}
		pos += n
	case Bool:
		nb := (rows + 7) / 8
		if len(buf)-pos < nb {
			return fmt.Errorf("col: truncated bool column")
		}
		v.Bits = wireWords(v.Bits, buf[pos:pos+nb], rows)
		pos += nb
	case Any:
		if rows > len(buf)-pos {
			return fmt.Errorf("col: boxed column larger than frame")
		}
		v.Vals = resize(v.Vals, rows)
		for k := range v.Vals {
			val, n, err := row.DecodeValue(buf[pos:])
			if err != nil {
				return fmt.Errorf("col: boxed row %d: %w", k, err)
			}
			v.Vals[k] = val
			pos += n
		}
	}
	if pos != len(buf) {
		return fmt.Errorf("col: %d bytes after the column's %d rows", len(buf)-pos, rows)
	}
	if nulls != nil {
		v.nulls = wireWords(v.nulls, nulls, rows)
		v.zeroNulls()
	}
	return nil
}

// packedRun parses the head of a packed run of rows fields at the start
// of buf: it returns the base, the width, the packed area and the bytes
// the run takes.
func packedRun(buf []byte, rows int) (base int64, w uint, area []byte, n int, err error) {
	base, n = binary.Varint(buf)
	if n <= 0 {
		return 0, 0, nil, 0, fmt.Errorf("col: corrupt packed base")
	}
	if n >= len(buf) {
		return 0, 0, nil, 0, fmt.Errorf("col: truncated packed width")
	}
	w = uint(buf[n])
	n++
	if w == 0 || (w > maxPackedWidth && w != 64) {
		return 0, 0, nil, 0, fmt.Errorf("col: packed width %d", w)
	}
	nb := (rows*int(w) + 7) / 8
	if nb > len(buf)-n {
		return 0, 0, nil, 0, fmt.Errorf("col: %d packed bytes past the chunk's %d", nb, len(buf)-n)
	}
	return base, w, buf[n : n+nb], n + nb, nil
}

// unpack decodes len(dst) w-bit fields of area, each plus base. A field
// of at most maxPackedWidth bits lies in the 8 bytes at its first byte;
// the fields whose 8 bytes pass the area's end are read from a copy.
func unpack[T int64 | uint32](dst []T, area []byte, w uint, base T) {
	if w == 64 {
		for k := range dst {
			dst[k] = base + T(binary.LittleEndian.Uint64(area[8*k:]))
		}
		return
	}
	mask := uint64(1)<<w - 1
	fast := 0
	if len(area) >= 8 {
		fast = min(len(dst), ((len(area)-8)*8+7)/int(w)+1)
	}
	bit := uint(0)
	for k := range dst[:fast] {
		dst[k] = base + T(binary.LittleEndian.Uint64(area[bit>>3:])>>(bit&7)&mask)
		bit += w
	}
	if fast == len(dst) {
		return
	}
	var tail [16]byte
	at := bit >> 3 << 3
	copy(tail[:], area[at>>3:])
	for k := fast; k < len(dst); k++ {
		off := bit - at
		dst[k] = base + T(binary.LittleEndian.Uint64(tail[off>>3:])>>(off&7)&mask)
		bit += w
	}
}

// decodeBytes parses a Bytes column's packed lengths and heap from buf
// into v, and returns the bytes they take. Every length must fit in the
// heap, and a null's length must be 0.
func decodeBytes(v *Vector, buf []byte, rows int, nulls []byte) (int, error) {
	base, w, area, pos, err := packedRun(buf, rows)
	if err != nil {
		return 0, err
	}
	if base < 0 || w > 32 {
		return 0, fmt.Errorf("col: packed lengths with base %d, width %d", base, w)
	}
	heap := buf[pos:]
	v.Offs = resize(v.Offs, rows+1)
	v.Offs[0] = 0
	unpack(v.Offs[1:], area, w, 0) // the deltas; the base is added below
	var sum uint64
	room, lo := uint64(len(heap)), uint64(base)
	for k, d := range v.Offs[1:] {
		l := lo + uint64(d)
		if l > room-sum {
			return 0, fmt.Errorf("col: bytes at row %d past the heap", k)
		}
		sum += l
		v.Offs[k+1] = uint32(sum)
	}
	for j, x := range nulls {
		for ; x != 0; x &= x - 1 {
			k := j*8 + mathbits.TrailingZeros8(x)
			if k < rows && v.Offs[k+1] != v.Offs[k] {
				return 0, fmt.Errorf("col: null row %d has a length", k)
			}
		}
	}
	v.Heap = append(v.Heap[:0], heap[:sum]...)
	return pos + int(sum), nil
}

// zeroNulls clears the payload under every null bit, whatever the frame
// carried there: a null holds its kind's zero value.
func (v *Vector) zeroNulls() {
	for w, bits := range v.nulls {
		for ; bits != 0; bits &= bits - 1 {
			i := w*64 + mathbits.TrailingZeros64(bits)
			switch v.kind {
			case Int64:
				v.Ints[i] = 0
			case Float64:
				v.Floats[i] = 0
			case Bool:
				v.Bits[i>>6] &^= 1 << (uint(i) & 63)
			}
		}
	}
}

// wireWords packs a wire bitmap into dst's words (bit k of word k/64),
// dropping the bits at and past rows.
func wireWords(dst []uint64, bm []byte, rows int) []uint64 {
	nw := (rows + 63) / 64
	dst = resize(dst, nw)
	clear(dst)
	for j, x := range bm {
		dst[j/8] |= uint64(x) << (8 * uint(j%8))
	}
	if r := rows % 64; r != 0 {
		dst[nw-1] &= 1<<uint(r) - 1
	}
	return dst
}

// resize returns s with length n, reusing its storage when it is large
// enough. The elements are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func beFloat(buf []byte) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(buf))
}

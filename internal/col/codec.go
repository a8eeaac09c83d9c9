package col

import (
	"encoding/binary"
	"fmt"
	"math"
	mathbits "math/bits"

	"tez/internal/row"
)

// Batch wire format: the relop broadcast edges that feed hash-join build
// sides, and the stripes of a table file (one frame per record value).
// Self-describing like library.DMInfo.Codec: a magic byte and a version
// lead the frame, then each column declares its own physical kind, so a
// decoder needs no out-of-band schema and old readers fail loudly rather
// than misparse. Each column chunk is preceded by its byte length, so a
// reader that wants only some columns steps over the others unparsed.
//
//	0xB5 version=2
//	uvarint width  uvarint nrows        (selection applied on encode)
//	per column:
//	  uint32 little-endian length of the chunk that follows
//	  kind byte (Kind)
//	  nulls byte 0|1, then ceil(nrows/8) bitmap bytes when 1
//	    (absent for Unset and Any)
//	  payload:
//	    Unset   — nothing (all rows null)
//	    Int64   — nrows varints (0 at null positions)
//	    Float64 — nrows big-endian float64s
//	    Bytes   — nrows of uvarint len + bytes (len 0 at null positions)
//	    Bool    — ceil(nrows/8) bitmap bytes
//	    Any     — nrows of row.Encode value elements
const (
	batchMagic   = 0xB5
	batchVersion = 2
	// chunkLenSize is the width of a column chunk's length prefix.
	chunkLenSize = 4
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
	var tmp [binary.MaxVarintLen64]byte
	kind := v.kind
	if kind == Unset || (v.konst && v.kind != Any && v.IsNull(0)) {
		return append(dst, byte(Unset))
	}
	dst = append(dst, byte(kind))

	// Null bitmap over live rows (Any carries nulls in its values).
	if kind != Any {
		anyNull := false
		for k := 0; k < live && !anyNull; k++ {
			anyNull = v.IsNull(b.RowAt(k))
		}
		if anyNull {
			dst = append(dst, 1)
			nb := (live + 7) / 8
			start := len(dst)
			for i := 0; i < nb; i++ {
				dst = append(dst, 0)
			}
			for k := 0; k < live; k++ {
				if v.IsNull(b.RowAt(k)) {
					dst[start+k/8] |= 1 << (uint(k) % 8)
				}
			}
		} else {
			dst = append(dst, 0)
		}
	}

	switch kind {
	case Int64:
		for k := 0; k < live; k++ {
			n := binary.PutVarint(tmp[:], v.Int(b.RowAt(k)))
			dst = append(dst, tmp[:n]...)
		}
	case Float64:
		var fb [8]byte
		for k := 0; k < live; k++ {
			binary.BigEndian.PutUint64(fb[:], math.Float64bits(v.Float(b.RowAt(k))))
			dst = append(dst, fb[:]...)
		}
	case Bytes:
		for k := 0; k < live; k++ {
			i := b.RowAt(k)
			var s []byte
			if !v.IsNull(i) {
				s = v.BytesAt(i)
			}
			n := binary.PutUvarint(tmp[:], uint64(len(s)))
			dst = append(dst, tmp[:n]...)
			dst = append(dst, s...)
		}
	case Bool:
		nb := (live + 7) / 8
		start := len(dst)
		for i := 0; i < nb; i++ {
			dst = append(dst, 0)
		}
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
		if rows > len(buf)-pos {
			return fmt.Errorf("col: int column larger than frame")
		}
		v.Ints = resize(v.Ints, rows)
		for k := range v.Ints {
			x, n := binary.Varint(buf[pos:])
			if n <= 0 {
				return fmt.Errorf("col: corrupt int at row %d", k)
			}
			pos += n
			v.Ints[k] = x
		}
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
		if rows > len(buf)-pos {
			return fmt.Errorf("col: bytes column larger than frame")
		}
		v.Offs = resize(v.Offs, rows+1)
		v.Offs[0] = 0
		heap := v.Heap[:0]
		for k := 0; k < rows; k++ {
			l, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				return fmt.Errorf("col: corrupt bytes length at row %d", k)
			}
			pos += n
			if uint64(len(buf)-pos) < l {
				return fmt.Errorf("col: truncated bytes at row %d", k)
			}
			if nulls == nil || !wireBit(nulls, k) {
				heap = append(heap, buf[pos:pos+int(l)]...)
			}
			pos += int(l)
			v.Offs[k+1] = uint32(len(heap))
		}
		v.Heap = heap
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

// wireBit reports bit k of a wire bitmap (bit k%8 of byte k/8).
func wireBit(bm []byte, k int) bool { return bm[k/8]&(1<<(uint(k)%8)) != 0 }

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

package col

import (
	"encoding/binary"
	"fmt"
	"math"

	"tez/internal/row"
)

// Batch wire format (the relop broadcast edges that feed hash-join build
// sides). Self-describing like library.DMInfo.Codec: a magic byte and
// a version lead the frame, then each column declares its own physical
// kind, so a decoder needs no out-of-band schema and old readers fail
// loudly rather than misparse.
//
//	0xB5 version=1
//	uvarint width  uvarint nrows        (selection applied on encode)
//	per column:
//	  kind byte (Kind)
//	  nulls byte 0|1, then ceil(nrows/8) bitmap bytes when 1
//	  payload:
//	    Unset   — nothing (all rows null)
//	    Int64   — nrows varints (0 at null positions)
//	    Float64 — nrows big-endian float64s
//	    Bytes   — nrows of uvarint len + bytes (len 0 at null positions)
//	    Bool    — ceil(nrows/8) bitmap bytes
//	    Any     — nrows of row.Encode value elements
const (
	batchMagic   = 0xB5
	batchVersion = 1
)

// MaxDecodeRows bounds the claimed row count a frame may declare. All-null
// (Unset) columns cost zero wire bytes per row, so without this cap a
// 9-byte hostile frame could claim 2^60 rows and stall every consumer
// that walks the decoded batch. The one producer frames at most
// relop.DefaultBatchSize (1024) rows.
const MaxDecodeRows = 1 << 20

// EncodeBatch appends the live rows of b as one batch frame. Constant
// vectors are materialized (the frame is always dense).
func EncodeBatch(dst []byte, b *Batch) []byte {
	var tmp [binary.MaxVarintLen64]byte
	live := b.Live()
	dst = append(dst, batchMagic, batchVersion)
	n := binary.PutUvarint(tmp[:], uint64(b.Width()))
	dst = append(dst, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(live))
	dst = append(dst, tmp[:n]...)
	for c := 0; c < b.Width(); c++ {
		dst = encodeCol(dst, &b.cols[c], b, live)
	}
	return dst
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

// DecodeBatch parses one batch frame into a fresh dense batch. Trailing
// bytes after the frame are ignored (mirroring row.Decode). Every length
// is validated against the remaining input before any allocation, so
// hostile frames cannot demand unbounded memory.
func DecodeBatch(buf []byte) (*Batch, error) {
	if len(buf) < 2 || buf[0] != batchMagic {
		return nil, fmt.Errorf("col: not a batch frame")
	}
	if buf[1] != batchVersion {
		return nil, fmt.Errorf("col: unsupported batch version %d", buf[1])
	}
	pos := 2
	width, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("col: corrupt batch width")
	}
	pos += n
	rows, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("col: corrupt batch row count")
	}
	pos += n
	if rows > MaxDecodeRows {
		return nil, fmt.Errorf("col: batch claims %d rows (max %d)", rows, MaxDecodeRows)
	}
	// Each column costs at least one byte on the wire.
	if width > uint64(len(buf)-pos) {
		return nil, fmt.Errorf("col: batch width %d exceeds frame", width)
	}
	b := NewBatch()
	b.setWidth(int(width))
	b.n = int(rows)
	for c := 0; c < int(width); c++ {
		var err error
		pos, err = decodeCol(&b.cols[c], buf, pos, int(rows))
		if err != nil {
			return nil, fmt.Errorf("col %d: %w", c, err)
		}
	}
	return b, nil
}

func decodeCol(v *Vector, buf []byte, pos, rows int) (int, error) {
	if pos >= len(buf) {
		return 0, fmt.Errorf("col: truncated column header")
	}
	kind := Kind(buf[pos])
	pos++
	if kind == Unset {
		v.kind = Unset
		v.n = rows
		v.konst = true
		return pos, nil
	}
	if kind > Any {
		return 0, fmt.Errorf("col: unknown column kind %d", kind)
	}

	var nulls []byte
	if kind != Any {
		if pos >= len(buf) {
			return 0, fmt.Errorf("col: truncated null marker")
		}
		marker := buf[pos]
		pos++
		if marker > 1 {
			return 0, fmt.Errorf("col: corrupt null marker %d", marker)
		}
		if marker == 1 {
			nb := (rows + 7) / 8
			if len(buf)-pos < nb {
				return 0, fmt.Errorf("col: truncated null bitmap")
			}
			nulls = buf[pos : pos+nb]
			pos += nb
		}
	}
	nullAt := func(k int) bool {
		return nulls != nil && nulls[k/8]&(1<<(uint(k)%8)) != 0
	}

	switch kind {
	case Int64:
		if rows > len(buf)-pos {
			return 0, fmt.Errorf("col: int column larger than frame")
		}
		v.promote(Int64)
		for k := 0; k < rows; k++ {
			x, n := binary.Varint(buf[pos:])
			if n <= 0 {
				return 0, fmt.Errorf("col: corrupt int at row %d", k)
			}
			pos += n
			if nullAt(k) {
				v.AppendNull()
			} else {
				v.AppendInt(x)
			}
		}
	case Float64:
		if rows > (len(buf)-pos)/8 {
			return 0, fmt.Errorf("col: float column larger than frame")
		}
		v.promote(Float64)
		for k := 0; k < rows; k++ {
			if nullAt(k) {
				v.AppendNull()
			} else {
				v.AppendFloat(beFloat(buf[pos:]))
			}
			pos += 8
		}
	case Bytes:
		if rows > len(buf)-pos {
			return 0, fmt.Errorf("col: bytes column larger than frame")
		}
		v.promote(Bytes)
		for k := 0; k < rows; k++ {
			l, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				return 0, fmt.Errorf("col: corrupt bytes length at row %d", k)
			}
			pos += n
			if uint64(len(buf)-pos) < l {
				return 0, fmt.Errorf("col: truncated bytes at row %d", k)
			}
			if nullAt(k) {
				v.AppendNull()
			} else {
				v.AppendBytes(buf[pos : pos+int(l)])
			}
			pos += int(l)
		}
	case Bool:
		nb := (rows + 7) / 8
		if len(buf)-pos < nb {
			return 0, fmt.Errorf("col: truncated bool column")
		}
		v.promote(Bool)
		for k := 0; k < rows; k++ {
			if nullAt(k) {
				v.AppendNull()
			} else {
				v.AppendBool(buf[pos+k/8]&(1<<(uint(k)%8)) != 0)
			}
		}
		pos += nb
	case Any:
		if rows > len(buf)-pos {
			return 0, fmt.Errorf("col: boxed column larger than frame")
		}
		v.promote(Any)
		for k := 0; k < rows; k++ {
			val, n, err := row.DecodeValue(buf[pos:])
			if err != nil {
				return 0, fmt.Errorf("col: boxed row %d: %w", k, err)
			}
			v.AppendValue(val)
			pos += n
		}
	}
	if v.n != rows {
		return 0, fmt.Errorf("col: decoded %d of %d rows", v.n, rows)
	}
	return pos, nil
}

func beFloat(buf []byte) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(buf))
}

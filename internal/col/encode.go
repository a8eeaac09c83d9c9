package col

import (
	"encoding/binary"
	"math"

	"tez/internal/row"
)

// This file mirrors the row package's two wire formats over columnar
// storage, byte for byte: AppendRowEncoded produces exactly row.Encode's
// output and AppendKeyEncoded exactly row.EncodeKey's, so the batch
// engine's sink files and shuffle segments are what a row-at-a-time
// engine would write. Bool vectors (comparison results) encode as Int 0/1
// — that is what the relop row oracle's Expr.Eval produces.

func uvarint(buf []byte) (uint64, int) { return binary.Uvarint(buf) }
func varint(buf []byte) (int64, int)   { return binary.Varint(buf) }
func beFloat(buf []byte) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(buf))
}

// AppendRowEncoded appends physical row i of b in row.Encode format.
func AppendRowEncoded(dst []byte, b *Batch, i int) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(b.Width()))
	dst = append(dst, tmp[:n]...)
	for c := 0; c < b.Width(); c++ {
		dst = AppendValueEncoded(dst, &b.cols[c], i)
	}
	return dst
}

// AppendValueEncoded appends row i of v as one row.Encode element.
func AppendValueEncoded(dst []byte, v *Vector, i int) []byte {
	i = v.phys(i)
	if v.kind == Any {
		return appendBoxedEncoded(dst, v.Vals[i])
	}
	if v.kind == Unset || bitGet(v.nulls, i) {
		return append(dst, byte(row.KindNull))
	}
	var tmp [binary.MaxVarintLen64]byte
	switch v.kind {
	case Int64:
		dst = append(dst, byte(row.KindInt))
		n := binary.PutVarint(tmp[:], v.Ints[i])
		dst = append(dst, tmp[:n]...)
	case Float64:
		dst = append(dst, byte(row.KindFloat))
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(v.Floats[i]))
		dst = append(dst, b[:]...)
	case Bytes:
		dst = append(dst, byte(row.KindString))
		s := v.Heap[v.Offs[i]:v.Offs[i+1]]
		n := binary.PutUvarint(tmp[:], uint64(len(s)))
		dst = append(dst, tmp[:n]...)
		dst = append(dst, s...)
	case Bool:
		dst = append(dst, byte(row.KindInt))
		var x int64
		if bitGet(v.Bits, i) {
			x = 1
		}
		n := binary.PutVarint(tmp[:], x)
		dst = append(dst, tmp[:n]...)
	}
	return dst
}

func appendBoxedEncoded(dst []byte, val row.Value) []byte {
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, byte(val.Kind))
	switch val.Kind {
	case row.KindInt:
		n := binary.PutVarint(tmp[:], val.Int)
		dst = append(dst, tmp[:n]...)
	case row.KindFloat:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(val.Float))
		dst = append(dst, b[:]...)
	case row.KindString:
		n := binary.PutUvarint(tmp[:], uint64(len(val.Str)))
		dst = append(dst, tmp[:n]...)
		dst = append(dst, val.Str...)
	}
	return dst
}

// AppendKeyEncoded appends row i of v as one row.EncodeKey segment
// (order-preserving: byte comparison matches row.Compare).
func AppendKeyEncoded(dst []byte, v *Vector, i int) []byte {
	i = v.phys(i)
	if v.kind == Any {
		return row.EncodeKey(dst, v.Vals[i])
	}
	if v.kind == Unset || bitGet(v.nulls, i) {
		return append(dst, 0x00)
	}
	switch v.kind {
	case Int64:
		return appendNumericKey(dst, float64(v.Ints[i]))
	case Float64:
		return appendNumericKey(dst, v.Floats[i])
	case Bool:
		var x float64
		if bitGet(v.Bits, i) {
			x = 1
		}
		return appendNumericKey(dst, x)
	case Bytes:
		dst = append(dst, 0x02)
		s := v.Heap[v.Offs[i]:v.Offs[i+1]]
		for k := 0; k < len(s); k++ {
			if s[k] == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, s[k])
			}
		}
		return append(dst, 0x00, 0x00)
	}
	return append(dst, 0x00)
}

func appendNumericKey(dst []byte, f float64) []byte {
	dst = append(dst, 0x01)
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], bits)
	return append(dst, b[:]...)
}

package col

import "tez/internal/row"

// This file writes the row package's two wire formats from columnar
// storage through row's own element and key appenders, so AppendRowEncoded
// produces exactly row.Encode's output and AppendKeyEncoded exactly
// row.EncodeKey's: the batch engine's sink files and shuffle segments are
// what a row-at-a-time engine would write. Bool vectors (comparison
// results) encode as Int 0/1 — that is what the relop row oracle's
// Expr.Eval produces.

// AppendRowEncoded appends physical row i of b in row.Encode format.
func AppendRowEncoded(dst []byte, b *Batch, i int) []byte {
	dst = row.AppendHeader(dst, b.Width())
	for c := 0; c < b.Width(); c++ {
		dst = AppendValueEncoded(dst, &b.cols[c], i)
	}
	return dst
}

// AppendValueEncoded appends row i of v as one row.Encode element.
func AppendValueEncoded(dst []byte, v *Vector, i int) []byte {
	i = v.phys(i)
	switch {
	case v.kind == Any:
		return row.AppendValue(dst, v.Vals[i])
	case v.kind == Unset || bitGet(v.nulls, i):
		return row.AppendNull(dst)
	case v.kind == Float64:
		return row.AppendFloat(dst, v.Floats[i])
	case v.kind == Bytes:
		return row.AppendString(dst, v.Heap[v.Offs[i]:v.Offs[i+1]])
	}
	return row.AppendInt(dst, v.Int(i)) // Int64, or Bool as 0/1
}

// AppendKeyEncoded appends row i of v as one row.EncodeKey segment
// (order-preserving: byte comparison matches row.Compare).
func AppendKeyEncoded(dst []byte, v *Vector, i int) []byte {
	i = v.phys(i)
	switch {
	case v.kind == Any:
		return row.EncodeKey(dst, v.Vals[i])
	case v.kind == Unset || bitGet(v.nulls, i):
		return row.AppendNullKey(dst)
	case v.kind == Float64:
		return row.AppendNumericKey(dst, v.Floats[i])
	case v.kind == Bytes:
		return row.AppendStringKey(dst, v.Heap[v.Offs[i]:v.Offs[i+1]])
	}
	return row.AppendNumericKey(dst, float64(v.Int(i))) // Int64, or Bool as 0/1
}

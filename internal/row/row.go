// Package row is the tuple data model shared by the Hive- and Pig-style
// engines built on Tez in this repository. Tez itself is data-format
// agnostic (§3.2); rows only ever flow through the engines' own
// processors, inputs and outputs.
package row

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind is a value type.
type Kind byte

// Value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return "null"
	}
}

// Value is a dynamically typed scalar.
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Str   string
}

// Convenience constructors.
func Null() Value           { return Value{Kind: KindNull} }
func Int(v int64) Value     { return Value{Kind: KindInt, Int: v} }
func Float(v float64) Value { return Value{Kind: KindFloat, Float: v} }
func String(v string) Value { return Value{Kind: KindString, Str: v} }

// IsNull reports whether v is null.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat coerces numerics to float64.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.Int)
	case KindFloat:
		return v.Float
	}
	return 0
}

// AsInt coerces numerics to int64.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt:
		return v.Int
	case KindFloat:
		return int64(v.Float)
	}
	return 0
}

func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindString:
		return v.Str
	default:
		return "NULL"
	}
}

// Compare orders values: null < int/float (numeric order) < string.
func Compare(a, b Value) int {
	ra, rb := rank(a.Kind), rank(b.Kind)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case KindNull:
		return 0
	case KindString:
		return strings.Compare(a.Str, b.Str)
	default:
		fa, fb := a.AsFloat(), b.AsFloat()
		if a.Kind == KindInt && b.Kind == KindInt {
			switch {
			case a.Int < b.Int:
				return -1
			case a.Int > b.Int:
				return 1
			}
			return 0
		}
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	}
}

func rank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		return 1
	default:
		return 2
	}
}

// Equal reports value equality under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Row is a tuple.
type Row []Value

// Clone deep-copies a row.
func (r Row) Clone() Row { return append(Row(nil), r...) }

// Col describes one column.
type Col struct {
	Name string
	Kind Kind
}

// Schema is an ordered column list.
type Schema struct {
	Cols []Col
}

// NewSchema builds a schema from "name:kind" specs (kind one of
// int/float/string).
func NewSchema(specs ...string) Schema {
	var s Schema
	for _, spec := range specs {
		parts := strings.SplitN(spec, ":", 2)
		kind := KindString
		if len(parts) == 2 {
			switch parts[1] {
			case "int":
				kind = KindInt
			case "float":
				kind = KindFloat
			}
		}
		s.Cols = append(s.Cols, Col{Name: parts[0], Kind: kind})
	}
	return s
}

// Index returns the position of a column by name (or -1). Qualified names
// ("t.col") match on the suffix.
func (s Schema) Index(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	for i, c := range s.Cols {
		if strings.HasSuffix(c.Name, "."+name) {
			return i
		}
	}
	return -1
}

// Width is the number of columns.
func (s Schema) Width() int { return len(s.Cols) }

// Concat appends another schema's columns.
func (s Schema) Concat(o Schema) Schema {
	out := Schema{Cols: append([]Col{}, s.Cols...)}
	out.Cols = append(out.Cols, o.Cols...)
	return out
}

// Qualify prefixes every column with "alias.".
func (s Schema) Qualify(alias string) Schema {
	out := Schema{Cols: make([]Col, len(s.Cols))}
	for i, c := range s.Cols {
		base := c.Name
		if idx := strings.LastIndexByte(base, '.'); idx >= 0 {
			base = base[idx+1:]
		}
		out.Cols[i] = Col{Name: alias + "." + base, Kind: c.Kind}
	}
	return out
}

// Encode appends a compact binary encoding of the row to dst.
func Encode(dst []byte, r Row) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(r)))
	dst = append(dst, tmp[:n]...)
	for _, v := range r {
		dst = append(dst, byte(v.Kind))
		switch v.Kind {
		case KindInt:
			n := binary.PutVarint(tmp[:], v.Int)
			dst = append(dst, tmp[:n]...)
		case KindFloat:
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], math.Float64bits(v.Float))
			dst = append(dst, b[:]...)
		case KindString:
			n := binary.PutUvarint(tmp[:], uint64(len(v.Str)))
			dst = append(dst, tmp[:n]...)
			dst = append(dst, v.Str...)
		}
	}
	return dst
}

// Decode parses one row from buf. Trailing bytes after the row are
// ignored.
func Decode(buf []byte) (Row, error) {
	cols, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("row: corrupt header")
	}
	// Every column takes at least its kind byte, so the header is bounded
	// by what remains before it sizes anything.
	if cols > uint64(len(buf)-n) {
		return nil, fmt.Errorf("row: header claims %d columns in %d bytes", cols, len(buf)-n)
	}
	pos := n
	r := make(Row, cols)
	for i := range r {
		if pos >= len(buf) {
			return nil, fmt.Errorf("row: truncated at col %d", i)
		}
		kind := Kind(buf[pos])
		pos++
		switch kind {
		case KindNull:
			r[i] = Null()
		case KindInt:
			v, n := binary.Varint(buf[pos:])
			if n <= 0 {
				return nil, fmt.Errorf("row: corrupt int at col %d", i)
			}
			pos += n
			r[i] = Int(v)
		case KindFloat:
			if pos+8 > len(buf) {
				return nil, fmt.Errorf("row: truncated float at col %d", i)
			}
			r[i] = Float(math.Float64frombits(binary.BigEndian.Uint64(buf[pos:])))
			pos += 8
		case KindString:
			l, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				return nil, fmt.Errorf("row: corrupt string at col %d", i)
			}
			pos += n
			if uint64(len(buf)-pos) < l {
				return nil, fmt.Errorf("row: truncated string at col %d", i)
			}
			r[i] = String(string(buf[pos : pos+int(l)]))
			pos += int(l)
		default:
			return nil, fmt.Errorf("row: unknown value kind %d at col %d", kind, i)
		}
	}
	return r, nil
}

// EncodeKey appends an order-preserving encoding of the values: byte-wise
// comparison of two encoded keys matches lexicographic Compare order of
// the value tuples. Used wherever keys are sorted by the shuffle (group
// keys, sort keys, range partitioning).
func EncodeKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		switch v.Kind {
		case KindNull:
			dst = append(dst, 0x00)
		case KindInt, KindFloat:
			dst = append(dst, 0x01)
			bits := math.Float64bits(v.AsFloat())
			// Flip for total order: negative floats reverse.
			if bits&(1<<63) != 0 {
				bits = ^bits
			} else {
				bits |= 1 << 63
			}
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], bits)
			dst = append(dst, b[:]...)
		case KindString:
			dst = append(dst, 0x02)
			// Escape 0x00 so the terminator is unambiguous.
			for i := 0; i < len(v.Str); i++ {
				c := v.Str[i]
				if c == 0x00 {
					dst = append(dst, 0x00, 0xFF)
				} else {
					dst = append(dst, c)
				}
			}
			dst = append(dst, 0x00, 0x00)
		}
	}
	return dst
}

// DescendingKey inverts an encoded key byte-wise for DESC ordering.
func DescendingKey(key []byte) []byte {
	out := make([]byte, len(key))
	for i, b := range key {
		out[i] = ^b
	}
	return out
}

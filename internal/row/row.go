// Package row is the tuple data model shared by the Hive- and Pig-style
// engines built on Tez in this repository. Tez itself is data-format
// agnostic (§3.2); rows only ever flow through the engines' own
// processors, inputs and outputs.
package row

import (
	"cmp"
	"encoding/binary"
	"errors"
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
	ra := Rank(a.Kind)
	if c := cmp.Compare(ra, Rank(b.Kind)); c != 0 {
		return c
	}
	switch ra {
	case 0:
		return 0
	case 2:
		return strings.Compare(a.Str, b.Str)
	}
	return CompareNumeric(a.Int, a.AsFloat(), a.Kind == KindInt, b.Int, b.AsFloat(), b.Kind == KindInt)
}

// CompareTotal is a total order that refines Compare: values order as
// their keys do (EncodeKey: class, then a number's float64 key bits,
// which set -0 below +0 and a NaN beyond the infinity of its sign), and
// numbers whose keys are equal order ints before floats and ints by value
// (ints past 2^53 share their float64's key). No two distinct values tie,
// so a min or max under it does not depend on the order values arrive in.
func CompareTotal(a, b Value) int {
	ra := Rank(a.Kind)
	if c := cmp.Compare(ra, Rank(b.Kind)); c != 0 {
		return c
	}
	switch ra {
	case 0:
		return 0
	case 2:
		return strings.Compare(a.Str, b.Str)
	}
	if c := cmp.Compare(NumericKeyBits(a.AsFloat()), NumericKeyBits(b.AsFloat())); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	return cmp.Compare(a.Int, b.Int)
}

// Rank is a kind's class in the value order: null 0 < number 1 < string 2.
func Rank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		return 1
	default:
		return 2
	}
}

// CompareNumeric orders two numbers given as (int, float, isInt): exactly
// as integers when both are, else as float64s (each int's float is its
// float64 conversion), with NaN equal to everything.
func CompareNumeric(ai int64, af float64, aInt bool, bi int64, bf float64, bInt bool) int {
	if aInt && bInt {
		switch {
		case ai < bi:
			return -1
		case ai > bi:
			return 1
		}
		return 0
	}
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	}
	return 0
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

// The row format, owned here and written nowhere else: a uvarint column
// count, then one element per column — its Kind byte and
//
//	int     zig-zag varint
//	float   8 bytes, IEEE-754 bits big-endian
//	string  uvarint length, then the bytes
//
// (null is the kind byte alone). The key format orders byte-wise as
// Compare orders values: per value a class byte (null 0x00, number 0x01,
// string 0x02), then for a number its float64 bits with the sign flipped
// (negatives inverted whole), for a string its bytes with 0x00 escaped as
// 0x00 0xFF and terminated by 0x00 0x00.

// AppendHeader appends a row's column count.
func AppendHeader(dst []byte, cols int) []byte { return binary.AppendUvarint(dst, uint64(cols)) }

// AppendNull appends a null element.
func AppendNull(dst []byte) []byte { return append(dst, byte(KindNull)) }

// AppendInt appends an int element.
func AppendInt(dst []byte, x int64) []byte {
	return binary.AppendVarint(append(dst, byte(KindInt)), x)
}

// AppendFloat appends a float element.
func AppendFloat(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(append(dst, byte(KindFloat)), math.Float64bits(f))
}

// AppendString appends a string element.
func AppendString(dst, s []byte) []byte {
	return append(binary.AppendUvarint(append(dst, byte(KindString)), uint64(len(s))), s...)
}

// AppendValue appends v as one element.
func AppendValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindInt:
		return AppendInt(dst, v.Int)
	case KindFloat:
		return AppendFloat(dst, v.Float)
	case KindString:
		return AppendString(dst, []byte(v.Str))
	}
	return AppendNull(dst)
}

// Encode appends a compact binary encoding of the row to dst.
func Encode(dst []byte, r Row) []byte {
	dst = AppendHeader(dst, len(r))
	for _, v := range r {
		dst = AppendValue(dst, v)
	}
	return dst
}

// DecodeHeader reads a row's column count and the header's length. Every
// column takes at least its kind byte, so a count larger than the bytes
// after the header is refused before it can size anything.
func DecodeHeader(buf []byte) (cols, n int, err error) {
	c, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, errors.New("row: corrupt header")
	}
	if c > uint64(len(buf)-n) {
		return 0, 0, fmt.Errorf("row: header claims %d columns in %d bytes", c, len(buf)-n)
	}
	return int(c), n, nil
}

// DecodeValue parses the element at the start of buf and returns it with
// the number of bytes it took.
func DecodeValue(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return Value{}, 0, errors.New("truncated")
	}
	switch kind := Kind(buf[0]); kind {
	case KindNull:
		return Null(), 1, nil
	case KindInt:
		x, n := binary.Varint(buf[1:])
		if n <= 0 {
			return Value{}, 0, errors.New("corrupt int")
		}
		return Int(x), 1 + n, nil
	case KindFloat:
		if len(buf) < 9 {
			return Value{}, 0, errors.New("truncated float")
		}
		return Float(math.Float64frombits(binary.BigEndian.Uint64(buf[1:]))), 9, nil
	case KindString:
		l, n := binary.Uvarint(buf[1:])
		if n <= 0 {
			return Value{}, 0, errors.New("corrupt string")
		}
		if uint64(len(buf)-1-n) < l {
			return Value{}, 0, errors.New("truncated string")
		}
		end := 1 + n + int(l)
		return String(string(buf[1+n : end])), end, nil
	default:
		return Value{}, 0, fmt.Errorf("unknown value kind %d", kind)
	}
}

// Decode parses one row from buf. Trailing bytes after the row are
// ignored.
func Decode(buf []byte) (Row, error) {
	cols, pos, err := DecodeHeader(buf)
	if err != nil {
		return nil, err
	}
	r := make(Row, cols)
	for i := range r {
		v, n, err := DecodeValue(buf[pos:])
		if err != nil {
			return nil, fmt.Errorf("row: %v at col %d", err, i)
		}
		r[i] = v
		pos += n
	}
	return r, nil
}

// AppendNullKey appends a null's key.
func AppendNullKey(dst []byte) []byte { return append(dst, 0x00) }

// AppendNumericKey appends a number's key.
func AppendNumericKey(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(append(dst, 0x01), NumericKeyBits(f))
}

// NumericKeyBits is the 8 bytes of a number's key as an integer: f's
// float64 bits with the sign bit flipped, a negative's inverted whole, so
// they order as the floats do, with -0 below +0 and each NaN beyond the
// infinity of its sign.
func NumericKeyBits(f float64) uint64 {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// AppendStringKey appends a string's key.
func AppendStringKey(dst, s []byte) []byte {
	dst = append(dst, 0x02)
	for _, c := range s {
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x00)
}

// KeyHasNull reports whether a key EncodeKey wrote (unflipped) holds a
// null: an inner join matches no such key, not even an equal one.
func KeyHasNull(key []byte) bool {
	for i := 0; i < len(key); {
		switch key[i] {
		case 0x00:
			return true
		case 0x01:
			i += 9
		default: // a string: its bytes, a 0x00 escaped as 0x00 0xFF, then 0x00 0x00
			for i++; i+1 < len(key) && (key[i] != 0x00 || key[i+1] != 0x00); i++ {
				if key[i] == 0x00 {
					i++
				}
			}
			i += 2
		}
	}
	return false
}

// EncodeKey appends an order-preserving encoding of the values: byte-wise
// comparison of two encoded keys matches lexicographic Compare order of
// the value tuples. Used wherever keys are sorted by the shuffle (group
// keys, sort keys, range partitioning).
func EncodeKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		switch v.Kind {
		case KindNull:
			dst = AppendNullKey(dst)
		case KindInt, KindFloat:
			dst = AppendNumericKey(dst, v.AsFloat())
		case KindString:
			dst = AppendStringKey(dst, []byte(v.Str))
		}
	}
	return dst
}

// FlipKey inverts an encoded key byte-wise in place, reversing its order:
// the key of a DESC column.
func FlipKey(key []byte) {
	for i := range key {
		key[i] = ^key[i]
	}
}

package plugin

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary payloads. A payload type that is encoded or decoded once per
// task, per partition announcement or per fetch implements
// encoding.BinaryMarshaler and encoding.BinaryUnmarshaler with the helpers
// below, and Encode/Decode use those methods instead of gob. The format is
// append-style and reflection-free: a three-byte header, then the type's
// fields in declaration order as varints and length-prefixed bytes.
//
// The header is what keeps the two encodings apart. A gob stream starts
// with a message length, which is never zero, so no gob stream starts with
// wireTag; the version byte names this field layout; the kind byte is
// chosen by the payload type, so one type's bytes are not silently
// accepted as another's. Decoding is strict — a wrong header, a truncated
// or non-minimal varint, a length or count larger than the bytes that
// remain, or trailing bytes is an error — so a successful decode
// re-encodes to exactly the bytes it read.
const (
	wireTag     = 0x00
	wireVersion = 1
	headerLen   = 3
)

// AppendHeader starts a binary payload of the given kind.
func AppendHeader(dst []byte, kind byte) []byte {
	return append(dst, wireTag, wireVersion, kind)
}

// AppendUvarint appends an unsigned count or length.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendInt appends a signed integer (zig-zag varint).
func AppendInt(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// Reader decodes a binary payload field by field. The first failure
// sticks: later reads return zero values, and Finish reports it, so a
// decoder reads every field and checks once.
type Reader struct {
	buf []byte
	err error
}

// NewReader checks the header of a binary payload of the given kind.
func NewReader(data []byte, kind byte) Reader {
	r := Reader{buf: data}
	switch {
	case len(data) < headerLen:
		r.fail("truncated header")
	case data[0] != wireTag:
		r.fail("not a binary payload (first byte 0x%02x)", data[0])
	case data[1] != wireVersion:
		r.fail("format version %d, want %d", data[1], wireVersion)
	case data[2] != kind:
		r.fail("payload kind %d, want %d", data[2], kind)
	default:
		r.buf = data[headerLen:]
	}
	return r
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("plugin: binary payload: "+format, args...)
	}
	r.buf = nil
}

// Uvarint reads an unsigned varint, refusing an encoding longer than the
// value needs.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || (n > 1 && r.buf[n-1] == 0) {
		r.fail("bad varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Int64 reads a signed integer.
func (r *Reader) Int64() int64 {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Int reads a signed integer that must fit the platform's int.
func (r *Reader) Int() int {
	v := r.Int64()
	if v < math.MinInt || v > math.MaxInt {
		r.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// Count reads an element count and checks it against the bytes that
// remain, given the fewest bytes one element can occupy — before the
// caller allocates anything of that length.
func (r *Reader) Count(minElemBytes int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)/minElemBytes) {
		r.fail("count %d exceeds the %d bytes that remain", n, len(r.buf))
		return 0
	}
	return int(n)
}

// take returns the next length-prefixed field without copying it.
func (r *Reader) take() []byte {
	n := r.Count(1)
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// String reads a length-prefixed string (a copy; "" allocates nothing).
func (r *Reader) String() string { return string(r.take()) }

// Bytes reads a length-prefixed byte string into a copy of its own; an
// empty one reads as nil.
func (r *Reader) Bytes() []byte {
	b := r.take()
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Finish reports the first decoding failure, or bytes left over after the
// last field.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.buf) > 0 {
		r.fail("%d trailing bytes", len(r.buf))
	}
	return r.err
}

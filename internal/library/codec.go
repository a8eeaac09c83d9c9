// Package library provides the built-in runtime components that ship with
// Tez (§4.1): key-value inputs and outputs for the shuffle service and the
// DFS, the sorted/partitioned and unordered transports, hash and range
// partitioners, map/reduce processors and output committers. Applications
// that use only these need to supply nothing but their processor logic.
package library

import (
	"encoding/binary"
	"fmt"
)

// Key-value record framing: varint(len(key)+1), key, varint(len(value)+1),
// value. The +1 bias reserves a leading 0x00 byte as the block-padding
// marker used by DFS record files so that records never straddle DFS block
// boundaries and byte-range splits are self-contained.

const paddingByte = 0x00

// AppendRecord appends the encoding of (key, value) to dst.
func AppendRecord(dst, key, value []byte) []byte {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(key))+1)
	dst = append(dst, hdr[:n]...)
	dst = append(dst, key...)
	n = binary.PutUvarint(hdr[:], uint64(len(value))+1)
	dst = append(dst, hdr[:n]...)
	dst = append(dst, value...)
	return dst
}

// RecordSize returns the encoded size of (key, value).
func RecordSize(key, value []byte) int {
	return uvarintLen(uint64(len(key))+1) + len(key) + uvarintLen(uint64(len(value))+1) + len(value)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// DecodeRecord reads one record from buf. It returns the key, value and
// bytes consumed, or consumed == 0 when buf starts with padding or is
// empty. Key and value are views of buf, each capacity cut to its length,
// so an append to either reallocates instead of writing over the next
// record (buf may be a DFS block, which is read-only).
func DecodeRecord(buf []byte) (key, value []byte, consumed int, err error) {
	if len(buf) == 0 || buf[0] == paddingByte {
		return nil, nil, 0, nil
	}
	kl, n := binary.Uvarint(buf)
	// kl-1 > len(buf) also rejects lengths that would overflow int (a
	// fuzzer-found panic: int(kl-1) went negative and sliced [:negative]).
	if n <= 0 || kl == 0 || kl-1 > uint64(len(buf)) {
		return nil, nil, 0, fmt.Errorf("library: corrupt record header")
	}
	pos := n
	klen := int(kl - 1)
	if pos+klen > len(buf) {
		return nil, nil, 0, fmt.Errorf("library: truncated key")
	}
	key = buf[pos : pos+klen : pos+klen]
	pos += klen
	vl, n := binary.Uvarint(buf[pos:])
	if n <= 0 || vl == 0 || vl-1 > uint64(len(buf)) {
		return nil, nil, 0, fmt.Errorf("library: corrupt value header")
	}
	pos += n
	vlen := int(vl - 1)
	if pos+vlen > len(buf) {
		return nil, nil, 0, fmt.Errorf("library: truncated value")
	}
	value = buf[pos : pos+vlen : pos+vlen]
	pos += vlen
	return key, value, pos, nil
}

// BufferReader iterates records in an encoded byte buffer (one shuffle
// partition, or the padded blocks of a DFS split or file). It implements
// runtime.KVReader.
type BufferReader struct {
	buf []byte
	pos int
	// padded: zero bytes at a record boundary are block padding to step
	// over, not the end of the stream. Records never begin with a 0x00
	// header byte, so the two cannot be confused.
	padded bool
	key    []byte
	val    []byte
	err    error
	done   bool
}

// NewBufferReader wraps an encoded buffer.
func NewBufferReader(buf []byte) *BufferReader { return &BufferReader{buf: buf} }

// Next advances to the next record.
func (r *BufferReader) Next() bool {
	if r.done || r.err != nil {
		return false
	}
	if r.padded {
		for r.pos < len(r.buf) && r.buf[r.pos] == paddingByte {
			r.pos++
		}
	}
	k, v, n, err := DecodeRecord(r.buf[r.pos:])
	if err != nil {
		r.err = err
		return false
	}
	if n == 0 {
		r.done = true
		return false
	}
	r.key, r.val, r.pos = k, v, r.pos+n
	return true
}

// Key returns the current key.
func (r *BufferReader) Key() []byte { return r.key }

// Value returns the current value.
func (r *BufferReader) Value() []byte { return r.val }

// Err reports a decoding error, if any: a malformed record ends the
// iteration here, it does not pass for the end of the data.
func (r *BufferReader) Err() error { return r.err }

// NewPaddedReader iterates the records of a (possibly block-padded)
// buffer, e.g. a split, a whole record file or a committed sink part file.
// It reads data in place, stepping over the padding between blocks.
func NewPaddedReader(data []byte) *BufferReader {
	return &BufferReader{buf: data, padded: true}
}

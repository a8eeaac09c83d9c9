package library

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Deterministic corruption coverage for the record framing: every
// malformed prefix must surface as an error or a clean stop — never a
// panic or an out-of-range slice.

func TestDecodeRecordTruncatedHeader(t *testing.T) {
	// A multi-byte varint cut off mid-way: 0x80 says "more bytes follow"
	// and there are none.
	if _, _, _, err := DecodeRecord([]byte{0x80}); err == nil {
		t.Fatal("truncated varint header accepted")
	}
	// Header says 100-byte key, buffer has 3.
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], 101)
	if _, _, _, err := DecodeRecord(append(hdr[:n:n], 'a', 'b', 'c')); err == nil {
		t.Fatal("truncated key accepted")
	}
	// Valid key, value header truncated.
	rec := AppendRecord(nil, []byte("k"), []byte("vvvv"))
	if _, _, _, err := DecodeRecord(rec[:len(rec)-2]); err == nil {
		t.Fatal("truncated value accepted")
	}
	// Value header missing entirely.
	if _, _, _, err := DecodeRecord(rec[:2]); err == nil {
		t.Fatal("missing value header accepted")
	}
}

func TestPaddingByteCollision(t *testing.T) {
	// 0x00 bytes inside keys and values must survive the +1 length bias:
	// only a LEADING 0x00 is padding.
	key := []byte{0x00, 'k', 0x00}
	val := []byte{0x00, 0x00}
	rec := AppendRecord(nil, key, val)
	k, v, n, err := DecodeRecord(rec)
	if err != nil || n != len(rec) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if !bytes.Equal(k, key) || !bytes.Equal(v, val) {
		t.Fatalf("round trip: key=%q val=%q", k, v)
	}
	// Leading zero is padding: consumed == 0, no error.
	if _, _, n, err := DecodeRecord(append([]byte{0x00}, rec...)); n != 0 || err != nil {
		t.Fatalf("padding prefix: n=%d err=%v", n, err)
	}
	// Empty key and value are representable (length bias 1, not 0).
	rec = AppendRecord(nil, nil, nil)
	if k, v, n, err := DecodeRecord(rec); err != nil || n != len(rec) || len(k) != 0 || len(v) != 0 {
		t.Fatalf("empty record: k=%q v=%q n=%d err=%v", k, v, n, err)
	}
	// The padded reader keeps interior zeros and steps over boundary ones.
	padded := append([]byte{0x00, 0x00}, AppendRecord(nil, key, val)...)
	padded = append(padded, 0x00)
	r := NewPaddedReader(padded)
	if !r.Next() || !bytes.Equal(r.Key(), key) || !bytes.Equal(r.Value(), val) || r.Next() || r.Err() != nil {
		t.Fatalf("padded reader: k=%q v=%q err=%v", r.Key(), r.Value(), r.Err())
	}
}

func TestFlateBlockCorruption(t *testing.T) {
	raw := AppendRecord(nil, []byte("key"), bytes.Repeat([]byte("value"), 100))
	wire, err := encodeBlock(flateCodec{}, raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBlock("flate", wire, len(raw))
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("round trip failed: err=%v", err)
	}
	if _, err := decodeBlock("flate", wire[:len(wire)/2], len(raw)); err == nil {
		t.Fatal("truncated flate block accepted")
	}
	if _, err := decodeBlock("flate", wire, len(raw)+1); err == nil {
		t.Fatal("raw-size mismatch accepted")
	}
	if _, err := decodeBlock("no-such-codec", wire, len(raw)); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x80})
	f.Add(AppendRecord(nil, []byte("k"), []byte("v")))
	f.Add(AppendRecord(nil, nil, nil))
	f.Add(AppendRecord(nil, []byte{0x00}, bytes.Repeat([]byte{0x00}, 10)))
	f.Add(append(AppendRecord(nil, []byte("k"), []byte("v")), 0x80, 0x80))
	f.Fuzz(func(t *testing.T, buf []byte) {
		key, value, n, err := DecodeRecord(buf)
		if err != nil {
			return
		}
		if n == 0 {
			if len(buf) > 0 && buf[0] != paddingByte {
				t.Fatalf("zero consumed on non-padding input %x", buf)
			}
			return
		}
		if n > len(buf) {
			t.Fatalf("consumed %d of %d", n, len(buf))
		}
		// A successfully decoded record re-encodes to the bytes just
		// consumed whenever the varint headers are minimal; re-decoding
		// the re-encoding must round-trip regardless.
		re := AppendRecord(nil, key, value)
		k2, v2, n2, err := DecodeRecord(re)
		if err != nil || n2 != len(re) || !bytes.Equal(k2, key) || !bytes.Equal(v2, value) {
			t.Fatalf("re-encode round trip: n=%d err=%v", n2, err)
		}
	})
}

func FuzzBufferReader(f *testing.F) {
	two := AppendRecord(AppendRecord(nil, []byte("a"), []byte("1")), []byte("b"), []byte("2"))
	f.Add([]byte{})
	f.Add(two)
	f.Add([]byte{0x05, 0x01, 0x02})
	f.Add(bytes.Repeat([]byte{0xff}, 16))
	// Padded shapes: padding before, between and after records; padding
	// only; and a record corrupted behind padding.
	f.Add(append(append([]byte{0x00, 0x00}, two[:len(two)/2]...), append([]byte{0x00, 0x00, 0x00}, two[len(two)/2:]...)...))
	f.Add(append(append([]byte{}, two...), 0x00, 0x00))
	f.Add(make([]byte, 9))
	f.Add(append(append([]byte{}, two...), 0x00, 0xff, 0x01))
	f.Fuzz(func(t *testing.T, buf []byte) {
		// Both readers terminate without panics and without reading past
		// the buffer (Err may or may not be set). The padded one reads a
		// superset: the same records up to the first padding byte, where
		// the plain reader stops and the padded one steps over.
		plain, padded := NewBufferReader(buf), NewPaddedReader(buf)
		total := 0
		for plain.Next() {
			if !padded.Next() || !bytes.Equal(padded.Key(), plain.Key()) || !bytes.Equal(padded.Value(), plain.Value()) {
				t.Fatalf("padded reader diverged from the plain one before any padding")
			}
			total += RecordSize(plain.Key(), plain.Value())
		}
		for padded.Next() {
			total += RecordSize(padded.Key(), padded.Value())
		}
		zeros := bytes.Count(buf, []byte{paddingByte})
		if total > len(buf) {
			t.Fatalf("decoded more bytes than the buffer holds (%d > %d)", total, len(buf))
		}
		// Whatever the padded reader did not hand out as records is padding
		// or the tail behind an error: with no error and no zero byte
		// anywhere, every byte was a record's.
		if padded.Err() == nil && zeros == 0 && total != len(buf) {
			t.Fatalf("clean %d-byte buffer read as %d bytes of records", len(buf), total)
		}
		if plain.Err() != nil && padded.Err() == nil {
			t.Fatalf("padded reader swallowed the plain reader's error %v", plain.Err())
		}
	})
}

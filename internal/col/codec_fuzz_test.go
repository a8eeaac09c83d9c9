package col

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"tez/internal/row"
)

func frame(rows ...row.Row) []byte {
	b := NewBatch()
	for _, r := range rows {
		b.AppendRow(r)
	}
	return EncodeBatch(nil, b)
}

func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{batchMagic})
	f.Add([]byte{batchMagic, batchVersion})
	f.Add([]byte{batchMagic, batchVersion, 0x80}) // width varint cut mid-way
	f.Add([]byte{batchMagic, 0xFF})               // future version
	f.Add(frame())
	f.Add(frame(row.Row{}))
	f.Add(frame(row.Row{row.Int(1), row.Float(2.5), row.String("s"), row.Null()}))
	f.Add(frame(
		row.Row{row.Int(-7), row.String("")},
		row.Row{row.Null(), row.String("\x00\x00")},
	))
	// A kind-mixed column forces the boxed (Any) wire representation.
	f.Add(frame(
		row.Row{row.Int(1)},
		row.Row{row.String("mix")},
		row.Row{row.Float(3.5)},
	))
	// Huge claimed row count with a tiny payload must be rejected cheaply.
	f.Add([]byte{batchMagic, batchVersion, 0x01, 0xFF, 0xFF, 0xFF, 0x7F, byte(Int64), 0x00})
	f.Fuzz(func(t *testing.T, buf []byte) {
		b, err := DecodeBatch(buf)
		if err != nil {
			return
		}
		// A decodable frame must survive a canonical re-encode/decode with
		// every row's wire bytes unchanged.
		re := EncodeBatch(nil, b)
		b2, err := DecodeBatch(re)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v (frame %x)", err, re)
		}
		if b2.Len() != b.Len() || b2.Width() != b.Width() {
			t.Fatalf("shape changed: %dx%d -> %dx%d", b.Len(), b.Width(), b2.Len(), b2.Width())
		}
		if n := decodedBytes(b); n > 64*len(buf) {
			t.Fatalf("a %d-byte frame decoded into %d bytes of vectors", len(buf), n)
		}
		var r1, r2 []byte
		for i := 0; i < b.Len(); i++ {
			r1 = AppendRowEncoded(r1[:0], b, i)
			r2 = AppendRowEncoded(r2[:0], b2, i)
			if !bytes.Equal(r1, r2) {
				t.Fatalf("row %d changed: %x -> %x", i, r1, r2)
			}
		}
	})
}

// decodedBytes is the storage b's vectors hold. Every row of a decoded
// column costs the frame at least a bit, so it stays within 64 times the
// frame's bytes (an int64 per bit at worst).
func decodedBytes(b *Batch) int {
	n := 0
	for c := 0; c < b.Width(); c++ {
		v := b.Col(c)
		n += 8*(len(v.Ints)+len(v.Floats)+len(v.Bits)+len(v.nulls)) + 4*len(v.Offs) + len(v.Heap)
		for _, x := range v.Vals {
			n += int(unsafe.Sizeof(x)) + len(x.Str)
		}
	}
	return n
}

// stripeFrame is a seed stripe: n rows of stripeRows' shapes, width w.
func stripeFrame(seed int64, n, w int) []byte {
	return EncodeBatch(nil, batchOf(stripeRows(rand.New(rand.NewSource(seed)), n, w)))
}

// FuzzColumnFile holds the column-subset decode of table stripes to the
// full decode: for any frame DecodeBatch accepts, decoding the columns
// mask selects gives exactly those columns, the others null constants.
// An accepted frame's column lengths each fit in the bytes that remain,
// and its row count is within MaxDecodeRows even when every column is
// all-null and costs nothing per row.
func FuzzColumnFile(f *testing.F) {
	for i, w := range []int{0, 1, 3, 6, 9} {
		f.Add(stripeFrame(int64(i), 1+i*40, w), uint64(0b1010110))
	}
	f.Add(frame(
		row.Row{row.Int(1), row.Null(), row.Float(2), row.String("a"), row.Null()},
		row.Row{row.Null(), row.Null(), row.Null(), row.String(""), row.Int(3)},
	), uint64(0b10101))
	f.Add(frame(row.Row{row.Null(), row.Null()}), uint64(1))
	// An all-null column claiming more than MaxDecodeRows rows.
	f.Add([]byte{batchMagic, batchVersion, 0x01, 0x81, 0x80, 0x40, 0x01, 0, 0, 0, byte(Unset)}, uint64(1))
	// A column length past the end of the frame.
	f.Add([]byte{batchMagic, batchVersion, 0x01, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, byte(Unset)}, uint64(1))
	f.Fuzz(func(t *testing.T, buf []byte, mask uint64) {
		full, err := DecodeBatch(buf)
		if err != nil {
			return
		}
		if full.Len() > MaxDecodeRows {
			t.Fatalf("accepted %d rows (max %d)", full.Len(), MaxDecodeRows)
		}
		_, n1 := binary.Uvarint(buf[2:])
		_, n2 := binary.Uvarint(buf[2+n1:])
		pos := 2 + n1 + n2
		for c := 0; c < full.Width(); c++ {
			l := int(binary.LittleEndian.Uint32(buf[pos:]))
			if pos += chunkLenSize; l > len(buf)-pos {
				t.Fatalf("col %d: accepted length %d with %d bytes left", c, l, len(buf)-pos)
			}
			pos += l
		}
		cols := []int{}
		for c := 0; c < full.Width(); c++ {
			if mask>>(uint(c)%64)&1 == 1 {
				cols = append(cols, c)
			}
		}
		part := NewBatch()
		if err := DecodeBatchInto(part, buf, cols); err != nil {
			t.Fatalf("columns %v of an accepted frame refused: %v", cols, err)
		}
		checkSubset(t, full, part, cols)
	})
}

// rawFrame is a frame of rows rows and one column chunk, written by hand.
func rawFrame(rows byte, chunk ...byte) []byte {
	buf := []byte{batchMagic, batchVersion, 0x01, rows}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(chunk)))
	return append(buf, chunk...)
}

// intChunk is a null-free Int64 chunk of base 0 and width w with area
// bytes of packed fields.
func intChunk(w, area int) []byte {
	return append([]byte{byte(Int64), 0, 0, byte(w)}, make([]byte, area)...)
}

// TestDecodeRefusesHostileFrames: lengths are checked against the bytes
// that remain, a column must use exactly its length, and the row cap
// holds for columns that cost nothing per row. A packed width is 1–56 or
// 64, so every row costs a bit; a packed area must fit in its chunk; a
// bytes column's lengths must fit in its heap, and a null's must be 0.
func TestDecodeRefusesHostileFrames(t *testing.T) {
	good := frame(row.Row{row.Int(5), row.String("ab")})
	hostile := map[string][]byte{
		"rows over the cap, all null": {batchMagic, batchVersion, 0x01, 0x81, 0x80, 0x40, 0x01, 0, 0, 0, byte(Unset)},
		"length past the end":         {batchMagic, batchVersion, 0x01, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, byte(Unset)},
		"column shorter than length":  {batchMagic, batchVersion, 0x01, 0x00, 0x02, 0, 0, 0, byte(Unset), 0x00},
		"truncated frame":             good[:len(good)-1],
		"version 1":                   append([]byte{batchMagic, 1}, good[2:]...),
		"version 2":                   append([]byte{batchMagic, 2}, good[2:]...),
		"packed area one byte short":  rawFrame(8, intChunk(3, 2)...),
		"no packed width":             rawFrame(8, byte(Int64), 0, 0),
		// Two rows, row 1 null but of length 1: lengths 1, 1 in two bits.
		"null bytes row with a length": rawFrame(2, byte(Bytes), 1, 0b10, 0, 2, 0b0101, 'a', 'b'),
		// Lengths 1 and 2 over a two-byte heap.
		"lengths past the heap": rawFrame(2, byte(Bytes), 0, 0, 2, 0b1001, 'a', 'b'),
		"negative length base":  rawFrame(1, byte(Bytes), 0, 1, 1, 0, 'a'),
	}
	for _, w := range []int{0, 57, 58, 63, 65, 255} {
		hostile[fmt.Sprintf("width %d", w)] = rawFrame(8, intChunk(w, w)...)
	}
	for name, buf := range hostile {
		for _, cols := range [][]int{nil, {0, 1}} {
			if err := DecodeBatchInto(NewBatch(), buf, cols); err == nil {
				t.Errorf("%s (cols %v): accepted", name, cols)
			}
		}
	}
	// The same hand-written shapes, made whole, decode.
	for name, buf := range map[string][]byte{
		"good":          good,
		"lengths 1, 1":  rawFrame(2, byte(Bytes), 0, 0, 2, 0b0101, 'a', 'b'),
		"null length 0": rawFrame(2, byte(Bytes), 1, 0b10, 0, 1, 0b01, 'a'),
		"width 1":       rawFrame(8, intChunk(1, 1)...),
		"width 56":      rawFrame(8, intChunk(56, 56)...),
		"width 64":      rawFrame(8, intChunk(64, 64)...),
	} {
		if _, err := DecodeBatch(buf); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

package col

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

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

// TestDecodeRefusesHostileFrames: lengths are checked against the bytes
// that remain, a column must use exactly its length, and the row cap
// holds for columns that cost nothing per row.
func TestDecodeRefusesHostileFrames(t *testing.T) {
	good := frame(row.Row{row.Int(5), row.String("ab")})
	for name, buf := range map[string][]byte{
		"rows over the cap, all null": {batchMagic, batchVersion, 0x01, 0x81, 0x80, 0x40, 0x01, 0, 0, 0, byte(Unset)},
		"length past the end":         {batchMagic, batchVersion, 0x01, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, byte(Unset)},
		"column shorter than length":  {batchMagic, batchVersion, 0x01, 0x00, 0x02, 0, 0, 0, byte(Unset), 0x00},
		"truncated frame":             good[:len(good)-1],
		"version 1":                   append([]byte{batchMagic, 1}, good[2:]...),
	} {
		for _, cols := range [][]int{nil, {0, 1}} {
			if err := DecodeBatchInto(NewBatch(), buf, cols); err == nil {
				t.Errorf("%s (cols %v): accepted", name, cols)
			}
		}
	}
	if _, err := DecodeBatch(good); err != nil {
		t.Fatal(err)
	}
}

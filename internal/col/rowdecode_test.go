package col

import (
	"bytes"
	"runtime"
	"testing"

	"tez/internal/row"
)

// Every shuffled relational value and every record-file row passes through
// one of the two row decoders, row.Decode and Batch.AppendEncoded. Both
// must refuse the same inputs, and a hostile header must cost them no more
// than its own length.

// hostileRows are inputs whose headers or kind bytes lie.
var hostileRows = map[string][]byte{
	"2^24 columns, no body":      {0x80, 0x80, 0x80, 0x08},
	"2^63-1 columns":             {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	"2^64-1 columns":             {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	"header varint overflow":     {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	"3 columns in 2 bytes":       {0x03, 0x00, 0x00},
	"unknown kind":               {0x01, 0x09},
	"unknown kind after a null":  {0x02, 0x00, 0x04},
	"string of 2^64-1 bytes":     {0x01, 0x03, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	"string longer than the row": {0x01, 0x03, 0x05, 'a', 'b'},
	"int varint overflow":        {0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	"float cut short":            {0x01, 0x02, 0x40, 0x09},
	"empty input":                {},
	"2^24 columns, two nulls":    {0x80, 0x80, 0x80, 0x08, 0x00, 0x00},
}

// allocatedBy reports the bytes one call of f allocates: the least of up
// to five calls, stopping at the first within limit, since the count is
// process-wide and other goroutines may allocate meanwhile.
func allocatedBy(limit uint64, f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5 && least > limit; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

func TestRowDecodersRefuseHostileHeaders(t *testing.T) {
	for name, buf := range hostileRows {
		limit := uint64(4096 + 64*len(buf))
		var rerr, berr error
		if n := allocatedBy(limit, func() { _, rerr = row.Decode(buf) }); n > limit {
			t.Errorf("%s: row.Decode allocated %d bytes for a %d-byte input", name, n, len(buf))
		}
		if rerr == nil {
			t.Errorf("%s: row.Decode accepted %x", name, buf)
		}
		// A fresh batch: one with its width fixed reports a different
		// width before parsing, and its caller retries on a fresh one.
		if n := allocatedBy(limit, func() { _, berr = NewBatch().AppendEncoded(buf) }); n > limit {
			t.Errorf("%s: AppendEncoded allocated %d bytes for a %d-byte input", name, n, len(buf))
		}
		if berr == nil {
			t.Errorf("%s: AppendEncoded accepted %x", name, buf)
		}
	}
}

// seedRows are lineitem- and orders-shaped rows, as the TPC-H generator
// writes them, plus the edge values of the row model.
var seedRows = []row.Row{
	{row.Int(7), row.Int(1552), row.Int(93), row.Int(17), row.Float(24252.03), row.Float(0.04),
		row.Float(0.02), row.String("N"), row.String("O"), row.Int(19960313)},
	{row.Int(7), row.Int(1552), row.Int(93), row.Int(17), row.Float(24252.03), row.Float(0.04),
		row.Float(0.02), row.String("N"), row.String("O")},
	{row.Int(7), row.Int(39136), row.String("O"), row.Float(173665.47), row.Int(19960102), row.Int(0)},
	{row.Int(18), row.String("Customer#000018"), row.Float(173665.47)},
	{},
	{row.Null(), row.String(""), row.String("k\x00\x01"), row.Float(-0.0)},
}

func FuzzRowDecoders(f *testing.F) {
	for _, r := range seedRows {
		f.Add(row.Encode(nil, r))
	}
	for _, buf := range hostileRows {
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		r, rerr := row.Decode(buf)
		b := NewBatch()
		ok, berr := b.AppendEncoded(buf)
		if (rerr == nil) != (berr == nil) {
			t.Fatalf("decoders disagree on %x: row.Decode %v, AppendEncoded %v", buf, rerr, berr)
		}
		if rerr != nil {
			if b.Len() != 0 {
				t.Fatalf("refused row left %d rows in the batch", b.Len())
			}
			return
		}
		if !ok || b.Len() != 1 {
			t.Fatalf("fresh batch took %x with ok=%v, %d rows", buf, ok, b.Len())
		}
		got, want := AppendRowEncoded(nil, b, 0), row.Encode(nil, r)
		if !bytes.Equal(got, want) {
			t.Fatalf("decoders read %x differently:\nbatch %x\nrow   %x", buf, got, want)
		}
	})
}

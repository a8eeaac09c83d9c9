package col

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tez/internal/row"
)

// stripeRows generates n rows of width w whose columns are typed (one
// kind each, sometimes with nulls), all-null, or kind-mixed, so every
// chunk kind and both null layouts occur.
func stripeRows(rng *rand.Rand, n, w int) []row.Row {
	shape := make([]int, w)
	for c := range shape {
		shape[c] = rng.Intn(8)
	}
	rows := make([]row.Row, n)
	for i := range rows {
		r := make(row.Row, w)
		for c := range r {
			v := randValue(rng)
			switch s := shape[c]; {
			case s == 7:
				v = row.Null()
			case s == 6: // kind-mixed: randValue as it comes
			case s >= 3 && rng.Intn(8) == 0: // typed with nulls
				v = row.Null()
			default:
				switch s % 3 {
				case 0:
					v = row.Int(rng.Int63n(1 << uint(rng.Intn(40))))
				case 1:
					v = row.Float(rng.NormFloat64())
				case 2:
					v = row.String(string(make([]byte, rng.Intn(20))))
				}
			}
			r[c] = v
		}
		rows[i] = r
	}
	return rows
}

func batchOf(rows []row.Row) *Batch {
	b := NewBatch()
	for _, r := range rows {
		b.AppendRow(r)
	}
	return b
}

// TestStripeSizeExact holds Stripe's size accounting to EncodeBatch: a
// row goes in exactly when the frame holding it fits the limit. Besides
// random stripes, a row may widen an already-packed column, and a span
// from a negative value to MaxInt64 needs the 64-bit width.
func TestStripeSizeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		checkStripeSize(t, fmt.Sprintf("trial %d", trial), stripeRows(rng, 1+rng.Intn(150), rng.Intn(6)))
	}
	long := string(make([]byte, 300))
	checkStripeSize(t, "widening", []row.Row{
		{row.Int(5), row.String("ab"), row.Null()},
		{row.Int(6), row.String("abc"), row.Int(-1)},
		{row.Int(1 << 40), row.String(long), row.Int(1 << 50)},
		{row.Null(), row.Null(), row.Int(-1 << 60)},
	})
	checkStripeSize(t, "64-bit span", []row.Row{
		{row.Int(-3), row.Int(math.MinInt64)},
		{row.Int(math.MaxInt64), row.Int(math.MaxInt64)},
		{row.Null(), row.Int(0)},
	})
}

func checkStripeSize(t *testing.T, name string, rows []row.Row) {
	t.Helper()
	s := NewStripe()
	for i, r := range rows {
		want := len(EncodeBatch(nil, batchOf(rows[:i+1])))
		if s.Add(r, want-1) {
			t.Fatalf("%s row %d: added under a limit one byte short of its %d-byte frame", name, i, want)
		}
		if !s.Add(r, want) {
			t.Fatalf("%s row %d: refused at its own frame size %d", name, i, want)
		}
	}
	frame := s.AppendFrame(nil)
	want := EncodeBatch(nil, batchOf(rows))
	if !bytes.Equal(frame, want) {
		t.Fatalf("%s: stripe frame differs from EncodeBatch's", name)
	}
	if s.Len() != 0 {
		t.Fatalf("%s: stripe holds %d rows after its frame", name, s.Len())
	}
	b, err := DecodeBatch(frame)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i, r := range rows {
		if got := AppendRowEncoded(nil, b, i); !bytes.Equal(got, row.Encode(nil, r)) {
			t.Fatalf("%s row %d: decodes as %x, want %x", name, i, got, row.Encode(nil, r))
		}
	}
}

func TestStripeRefusesOtherWidth(t *testing.T) {
	s := NewStripe()
	if !s.Add(row.Row{row.Int(1), row.Int(2)}, 1<<20) {
		t.Fatal("first row refused")
	}
	if s.Add(row.Row{row.Int(1)}, 1<<20) {
		t.Fatal("narrower row added to a width-2 stripe")
	}
}

// TestDecodeColumnSubset decodes random frames with random column
// subsets into one reused batch: a listed column reads as in the full
// decode, every other one is a null constant of the frame's length.
func TestDecodeColumnSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	into := NewBatch()
	for trial := 0; trial < 300; trial++ {
		w := rng.Intn(7)
		frame := EncodeBatch(nil, batchOf(stripeRows(rng, rng.Intn(100), w)))
		full, err := DecodeBatch(frame)
		if err != nil {
			t.Fatal(err)
		}
		var cols []int
		for c := 0; c < w+1; c++ { // w itself is not in the frame: ignored
			if rng.Intn(2) == 0 {
				cols = append(cols, c)
			}
		}
		if cols == nil {
			cols = []int{}
		}
		if err := DecodeBatchInto(into, frame, cols); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkSubset(t, full, into, cols)
	}
}

func checkSubset(t *testing.T, full, part *Batch, cols []int) {
	t.Helper()
	if part.Len() != full.Len() || part.Width() != full.Width() {
		t.Fatalf("shape %dx%d, want %dx%d", part.Len(), part.Width(), full.Len(), full.Width())
	}
	read := map[int]bool{}
	for _, c := range cols {
		read[c] = true
	}
	for c := 0; c < full.Width(); c++ {
		for i := 0; i < full.Len(); i++ {
			got := AppendValueEncoded(nil, part.Col(c), i)
			want := row.AppendNull(nil)
			if cols == nil || read[c] {
				want = AppendValueEncoded(nil, full.Col(c), i)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("col %d row %d: %x, want %x", c, i, got, want)
			}
		}
		if cols != nil && !read[c] && !part.Col(c).IsConst() {
			t.Fatalf("unread col %d is not a constant", c)
		}
	}
}

// TestDecodeBatchIntoAllocs: once warm, a batch decodes a stripe of
// lineitem-shaped rows, strings included, without allocating.
func TestDecodeBatchIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewStripe()
	for i := 0; i < 1024; i++ {
		s.Add(row.Row{
			row.Int(int64(i / 4)), row.Int(rng.Int63n(4000)), row.Float(rng.Float64()),
			row.String([]string{"A", "N", "R"}[rng.Intn(3)]), row.Int(19920101 + rng.Int63n(70000)),
		}, 1<<20)
	}
	frame := s.AppendFrame(nil)
	b := NewBatch()
	for _, cols := range [][]int{nil, {1, 3}} {
		if err := DecodeBatchInto(b, frame, cols); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() { _ = DecodeBatchInto(b, frame, cols) }); n != 0 {
			t.Fatalf("cols %v: %.1f allocations per warm decode, want 0", cols, n)
		}
	}
}

// frameStream yields frames as a record reader yields values.
type frameStream struct {
	frames [][]byte
	i      int
}

func (f *frameStream) Next() bool    { f.i++; return f.i <= len(f.frames) }
func (f *frameStream) Value() []byte { return f.frames[f.i-1] }
func (f *frameStream) Err() error    { return nil }

// TestStripeRowsReencode reads rows written through Stripe back with
// StripeRows: each re-encodes to the bytes row.Encode gives the original.
func TestStripeRowsReencode(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rows := stripeRows(rng, 500, 4)
	src := &frameStream{frames: [][]byte{EncodeBatch(nil, NewBatch())}} // an empty stripe first
	s := NewStripe()
	for _, r := range rows {
		if !s.Add(r, 600) {
			src.frames = append(src.frames, s.AppendFrame(nil))
			s.Add(r, 600)
		}
	}
	src.frames = append(src.frames, s.AppendFrame(nil))
	it := NewStripeRows(src)
	n := 0
	for ; it.Next(); n++ {
		got := AppendRowEncoded(nil, it.Batch(), it.Row())
		if want := row.Encode(nil, rows[n]); !bytes.Equal(got, want) {
			t.Fatalf("row %d: %x, want %x", n, got, want)
		}
	}
	if it.Err() != nil || n != len(rows) {
		t.Fatalf("read %d of %d rows, err %v", n, len(rows), it.Err())
	}
	if len(src.frames) < 4 {
		t.Fatalf("only %d stripes: the limit did not cut", len(src.frames))
	}
}

package col

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tez/internal/row"
)

// randValue covers every kind the row model has, including edge floats
// and strings with 0x00 bytes (the key-encoding escape path).
func randValue(rng *rand.Rand) row.Value {
	switch rng.Intn(10) {
	case 0:
		return row.Null()
	case 1, 2, 3:
		return row.Int(rng.Int63n(2000) - 1000)
	case 4, 5:
		f := rng.NormFloat64() * 100
		if rng.Intn(10) == 0 {
			f = math.Copysign(0, -1) // -0.0 vs +0.0 must round-trip bit-exact
		}
		return row.Float(f)
	default:
		n := rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256)) // includes 0x00
		}
		return row.String(string(b))
	}
}

func randRow(rng *rand.Rand, width int) row.Row {
	r := make(row.Row, width)
	for i := range r {
		r[i] = randValue(rng)
	}
	return r
}

func TestAppendRowEncodedMatchesRowEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		width := rng.Intn(6)
		b := NewBatch()
		var rows []row.Row
		for i := 0; i < 1+rng.Intn(40); i++ {
			r := randRow(rng, width)
			if !b.AppendRow(r) {
				t.Fatalf("trial %d: AppendRow rejected width %d", trial, width)
			}
			rows = append(rows, r)
		}
		for i, r := range rows {
			want := row.Encode(nil, r)
			got := AppendRowEncoded(nil, b, i)
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d row %d: encode mismatch\n got %x\nwant %x (row %v)", trial, i, got, want, r)
			}
		}
	}
}

func TestAppendEncodedRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		width := rng.Intn(6)
		b := NewBatch()
		var encoded [][]byte
		for i := 0; i < 1+rng.Intn(40); i++ {
			e := row.Encode(nil, randRow(rng, width))
			ok, err := b.AppendEncoded(e)
			if err != nil || !ok {
				t.Fatalf("trial %d: AppendEncoded ok=%v err=%v", trial, ok, err)
			}
			encoded = append(encoded, e)
		}
		for i, want := range encoded {
			got := AppendRowEncoded(nil, b, i)
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d row %d: roundtrip mismatch\n got %x\nwant %x", trial, i, got, want)
			}
			r, err := row.Decode(want)
			if err != nil {
				t.Fatal(err)
			}
			m := b.MaterializeRow(i)
			if len(m) != len(r) {
				t.Fatalf("materialize width %d want %d", len(m), len(r))
			}
			for c := range r {
				if m[c] != r[c] {
					t.Fatalf("trial %d row %d col %d: %v != %v", trial, i, c, m[c], r[c])
				}
			}
		}
	}
}

func TestAppendKeyEncodedMatchesRowEncodeKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		var v Vector
		var vals []row.Value
		for i := 0; i < 1+rng.Intn(30); i++ {
			val := randValue(rng)
			v.AppendValue(val)
			vals = append(vals, val)
		}
		for i, val := range vals {
			want := row.EncodeKey(nil, val)
			got := AppendKeyEncoded(nil, &v, i)
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d row %d (%v, vector kind %v): key mismatch\n got %x\nwant %x",
					trial, i, val, v.Kind(), got, want)
			}
		}
	}
}

func TestBoolVectorEncodesAsInt(t *testing.T) {
	v := NewBool(3)
	v.SetTrue(0)
	v.SetNullAt(2)
	wants := []row.Value{row.Int(1), row.Int(0), row.Null()}
	for i, w := range wants {
		if got, want := AppendValueEncoded(nil, &v, i), row.Encode(nil, row.Row{w})[1:]; !bytes.Equal(got, want) {
			t.Fatalf("bool row %d: got %x want %x", i, got, want)
		}
		if got, want := AppendKeyEncoded(nil, &v, i), row.EncodeKey(nil, w); !bytes.Equal(got, want) {
			t.Fatalf("bool key %d: got %x want %x", i, got, want)
		}
	}
}

func TestBatchCodecRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		width := rng.Intn(5)
		b := NewBatch()
		nrows := rng.Intn(50)
		for i := 0; i < nrows; i++ {
			b.AppendRow(randRow(rng, width))
		}
		if b.Width() == 0 && nrows == 0 {
			b.EnsureWidth(width)
			b.SetRowCount(0)
		}
		// Optionally apply a selection; the frame must contain exactly the
		// live rows.
		var liveIdx []int
		if nrows > 0 && rng.Intn(2) == 0 {
			pred := NewBool(nrows)
			for i := 0; i < nrows; i++ {
				if rng.Intn(2) == 0 {
					pred.SetTrue(i)
					liveIdx = append(liveIdx, i)
				}
			}
			b.Filter(&pred)
		} else {
			for i := 0; i < nrows; i++ {
				liveIdx = append(liveIdx, i)
			}
		}
		frame := EncodeBatch(nil, b)
		dec, err := DecodeBatch(frame)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if dec.Len() != len(liveIdx) || dec.Width() != b.Width() {
			t.Fatalf("trial %d: decoded %dx%d want %dx%d", trial, dec.Len(), dec.Width(), len(liveIdx), b.Width())
		}
		for k, i := range liveIdx {
			want := AppendRowEncoded(nil, b, i)
			got := AppendRowEncoded(nil, dec, k)
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d live row %d: mismatch\n got %x\nwant %x", trial, k, got, want)
			}
		}
	}
}

func TestAppendRowWidthMismatch(t *testing.T) {
	b := NewBatch()
	if !b.AppendRow(row.Row{row.Int(1), row.Int(2)}) {
		t.Fatal("first row rejected")
	}
	if b.AppendRow(row.Row{row.Int(1)}) {
		t.Fatal("width mismatch accepted")
	}
	if ok, err := b.AppendEncoded(row.Encode(nil, row.Row{row.Int(1)})); ok || err != nil {
		t.Fatalf("encoded width mismatch: ok=%v err=%v", ok, err)
	}
	if b.Len() != 1 {
		t.Fatalf("len %d after rejects", b.Len())
	}
	b.Reset()
	if !b.AppendRow(row.Row{row.Int(7)}) {
		t.Fatal("width should unlock after Reset")
	}
}

func TestAppendEncodedCorruptRollsBack(t *testing.T) {
	b := NewBatch()
	good := row.Encode(nil, row.Row{row.Int(5), row.String("hello")})
	if ok, err := b.AppendEncoded(good); !ok || err != nil {
		t.Fatalf("good row: ok=%v err=%v", ok, err)
	}
	if ok, err := b.AppendEncoded(good[:len(good)-3]); ok || err == nil {
		t.Fatalf("truncated row: ok=%v err=%v", ok, err)
	}
	if b.Len() != 1 {
		t.Fatalf("len %d after rollback", b.Len())
	}
	if got := AppendRowEncoded(nil, b, 0); !bytes.Equal(got, good) {
		t.Fatalf("row 0 damaged by rollback: %x want %x", got, good)
	}
}

func TestVectorDemotion(t *testing.T) {
	var v Vector
	v.AppendNull()
	v.AppendInt(5)
	if v.Kind() != Int64 {
		t.Fatalf("kind %v", v.Kind())
	}
	v.AppendValue(row.String("x"))
	if v.Kind() != Any {
		t.Fatalf("kind %v after mix", v.Kind())
	}
	wants := []row.Value{row.Null(), row.Int(5), row.String("x")}
	for i, w := range wants {
		if v.Value(i) != w {
			t.Fatalf("row %d: %v want %v", i, v.Value(i), w)
		}
	}
	// Int 5 must stay Int (not Float) through demotion: wire bytes differ.
	if got, want := AppendValueEncoded(nil, &v, 1), []byte{byte(row.KindInt), 0x0a}; !bytes.Equal(got, want) {
		t.Fatalf("demoted int encode %x want %x", got, want)
	}
}

func TestCompareAtMatchesRowCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var a, b Vector
	var av, bv []row.Value
	for i := 0; i < 300; i++ {
		x, y := randValue(rng), randValue(rng)
		a.AppendValue(x)
		b.AppendValue(y)
		av, bv = append(av, x), append(bv, y)
	}
	for i := range av {
		want := row.Compare(av[i], bv[i])
		if got := CompareAt(&a, i, &b, i); got != want {
			t.Fatalf("row %d: CompareAt(%v,%v)=%d want %d", i, av[i], bv[i], got, want)
		}
	}
}

func TestConstVector(t *testing.T) {
	v := Const(row.Int(9), 100)
	if v.Len() != 100 || !v.IsConst() {
		t.Fatal("const shape")
	}
	for _, i := range []int{0, 50, 99} {
		if v.Value(i) != row.Int(9) {
			t.Fatalf("const at %d: %v", i, v.Value(i))
		}
	}
	nv := ConstNull(7)
	if !nv.IsNull(3) || nv.Truthy(3) {
		t.Fatal("const null semantics")
	}
}

func TestFilterPingPong(t *testing.T) {
	b := NewBatch()
	for i := 0; i < 64; i++ {
		b.AppendRow(row.Row{row.Int(int64(i))})
	}
	even := NewBool(64)
	for i := 0; i < 64; i += 2 {
		even.SetTrue(i)
	}
	b.Filter(&even)
	if b.Live() != 32 {
		t.Fatalf("live %d", b.Live())
	}
	lt10 := NewBool(64)
	for i := 0; i < 10; i++ {
		lt10.SetTrue(i)
	}
	b.Filter(&lt10)
	if b.Live() != 5 {
		t.Fatalf("live %d after second filter", b.Live())
	}
	var got []int64
	for k := 0; k < b.Live(); k++ {
		got = append(got, b.Col(0).Int(b.RowAt(k)))
	}
	if fmt.Sprint(got) != "[0 2 4 6 8]" {
		t.Fatalf("selection %v", got)
	}
}

func TestTruthyMatchesRowSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var v Vector
	var vals []row.Value
	for i := 0; i < 300; i++ {
		val := randValue(rng)
		if rng.Intn(5) == 0 {
			val = row.Int(0)
		}
		v.AppendValue(val)
		vals = append(vals, val)
	}
	for i, val := range vals {
		want := !val.IsNull() && (val.Int != 0 || val.Float != 0 || val.Str != "")
		if got := v.Truthy(i); got != want {
			t.Fatalf("row %d (%v): truthy %v want %v", i, val, got, want)
		}
	}
}

// TestGatherMatchesAppendFrom: Gather copies the rows it is given, in
// order, as AppendFrom would one at a time — over typed, null-bearing,
// kind-mixed and constant columns, rows repeated and skipped.
func TestGatherMatchesAppendFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dst := NewBatch()
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.Intn(4)
		src := NewBatch()
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			r := make(row.Row, width)
			for c := range r {
				switch {
				case c%2 == 0 && rng.Intn(8) != 0: // mostly typed
					r[c] = row.Int(int64(c*1000 + i))
				case c%2 == 0:
					r[c] = row.Null()
				default:
					r[c] = randValue(rng)
				}
			}
			src.AppendRow(r)
		}
		if rng.Intn(4) == 0 {
			src = FromVectors(n, nil, []Vector{Const(row.Float(1.5), n)})
		}
		var rows []int32
		for i := 0; i < rng.Intn(2*n); i++ {
			rows = append(rows, int32(rng.Intn(n)))
		}
		dst.Gather(src, rows)
		if dst.Len() != len(rows) || dst.Width() != src.Width() {
			t.Fatalf("trial %d: %d rows of width %d, want %d of %d", trial, dst.Len(), dst.Width(), len(rows), src.Width())
		}
		for k, r := range rows {
			if got, want := AppendRowEncoded(nil, dst, k), AppendRowEncoded(nil, src, int(r)); !bytes.Equal(got, want) {
				t.Fatalf("trial %d row %d: %x, want %x", trial, k, got, want)
			}
		}
	}
}

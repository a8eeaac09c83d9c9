package row

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Null(), Int(0), -1},
		{String("a"), String("b"), -1},
		{Int(5), String("a"), -1}, // numbers sort before strings
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Fatalf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	r := Row{Int(-42), Float(3.14), String("hello"), Null(), String("")}
	buf := Encode(nil, r)
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(r) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range r {
		if !Equal(got[i], r[i]) || got[i].Kind != r[i].Kind {
			t.Fatalf("col %d: %v != %v", i, got[i], r[i])
		}
	}
}

func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(4) {
	case 0:
		return Null()
	case 1:
		return Int(rng.Int63n(1<<40) - (1 << 39))
	case 2:
		return Float((rng.Float64() - 0.5) * 1e6)
	default:
		n := rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return String(string(b))
	}
}

// Property: codec round-trips arbitrary rows.
func TestQuickRowCodec(t *testing.T) {
	f := func(seed int64, width uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := make(Row, int(width)%10)
		for i := range r {
			r[i] = randomValue(rng)
		}
		got, err := Decode(Encode(nil, r))
		if err != nil || len(got) != len(r) {
			return false
		}
		for i := range r {
			if got[i].Kind != r[i].Kind || Compare(got[i], r[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: EncodeKey is order-preserving — bytes.Compare of encodings
// agrees with tuple comparison.
func TestQuickEncodeKeyOrderPreserving(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Row{randomValue(rng), randomValue(rng)}
		b := Row{randomValue(rng), randomValue(rng)}
		ka := EncodeKey(nil, a...)
		kb := EncodeKey(nil, b...)
		want := 0
		for i := range a {
			if c := Compare(a[i], b[i]); c != 0 {
				want = c
				break
			}
		}
		got := bytes.Compare(ka, kb)
		if want == 0 {
			// Equal tuples must encode identically (group keys!).
			return got == 0
		}
		return sign(got) == sign(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestEncodeKeySortsNumerically(t *testing.T) {
	vals := []Value{Int(100), Int(-5), Float(2.5), Int(0), Float(-1e9), Int(99)}
	type pair struct {
		v Value
		k []byte
	}
	pairs := make([]pair, len(vals))
	for i, v := range vals {
		pairs[i] = pair{v, EncodeKey(nil, v)}
	}
	sort.Slice(pairs, func(i, j int) bool {
		return bytes.Compare(pairs[i].k, pairs[j].k) < 0
	})
	for i := range pairs {
		vals[i] = pairs[i].v
	}
	// After sorting by key bytes, values must be numerically ascending.
	for i := 1; i < len(vals); i++ {
		if Compare(vals[i-1], vals[i]) > 0 {
			t.Fatalf("order broken at %d: %v", i, vals)
		}
	}
}

func TestDescendingKeyReversesOrder(t *testing.T) {
	a := EncodeKey(nil, Int(1))
	b := EncodeKey(nil, Int(2))
	if !(bytes.Compare(a, b) < 0) {
		t.Fatal("precondition")
	}
	FlipKey(a)
	FlipKey(b)
	if !(bytes.Compare(a, b) > 0) {
		t.Fatal("descending key did not reverse order")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := NewSchema("a:int", "b:float", "c")
	if s.Width() != 3 {
		t.Fatal("width")
	}
	if s.Cols[0].Kind != KindInt || s.Cols[1].Kind != KindFloat || s.Cols[2].Kind != KindString {
		t.Fatalf("kinds = %+v", s.Cols)
	}
	q := s.Qualify("t")
	if q.Cols[0].Name != "t.a" {
		t.Fatalf("qualify = %v", q.Cols[0].Name)
	}
	if q.Index("a") != 0 || q.Index("t.b") != 1 || q.Index("zz") != -1 {
		t.Fatal("index lookup")
	}
	cat := s.Concat(q)
	if cat.Width() != 6 || cat.Cols[3].Name != "t.a" {
		t.Fatal("concat")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	r := Row{String("hello"), Int(12)}
	buf := Encode(nil, r)
	if _, err := Decode(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated row decoded")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty buffer decoded")
	}
}

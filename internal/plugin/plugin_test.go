package plugin

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegisterLookup(t *testing.T) {
	Register(KindProcessor, "pt.one", func() int { return 1 })
	Register(KindProcessor, "pt.two", func() int { return 2 })
	Register(KindInput, "pt.one", func() int { return 3 }) // same name, other kind

	if got, err := New[int](KindProcessor, Descriptor{Name: "pt.one"}); err != nil || got != 1 {
		t.Fatalf("got %d, %v", got, err)
	}
	if got, err := New[int](KindInput, Descriptor{Name: "pt.one"}); err != nil || got != 3 {
		t.Fatalf("kinds collided: got %d, %v", got, err)
	}
	if _, err := New[int](KindOutput, Descriptor{Name: "pt.one"}); err == nil {
		t.Fatal("lookup across kinds succeeded")
	}
	if _, err := New[int](KindProcessor, Descriptor{Name: "pt.missing"}); err == nil {
		t.Fatal("missing lookup succeeded")
	}
	// A factory registered for another entity type is an error, not a panic.
	if _, err := New[string](KindProcessor, Descriptor{Name: "pt.one"}); err == nil || !strings.Contains(err.Error(), "func() int") {
		t.Fatalf("factory of the wrong type: %v", err)
	}

	names := Names(KindProcessor)
	found := 0
	for _, n := range names {
		if strings.HasPrefix(n, "pt.") {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("Names = %v", names)
	}
	// Re-registration replaces.
	Register(KindProcessor, "pt.one", func() int { return 11 })
	if got, _ := New[int](KindProcessor, Descriptor{Name: "pt.one"}); got != 11 {
		t.Fatalf("re-registration ignored: %d", got)
	}
}

func TestDescriptor(t *testing.T) {
	d := Desc("x", nil)
	if d.IsZero() || d.Payload != nil {
		t.Fatalf("Desc = %+v", d)
	}
	if !(Descriptor{}).IsZero() {
		t.Fatal("zero descriptor not zero")
	}
	type cfg struct {
		A int
		B string
	}
	d2 := Desc("y", cfg{A: 7, B: "hi"})
	var got cfg
	if err := Decode(d2.Payload, &got); err != nil {
		t.Fatal(err)
	}
	if got.A != 7 || got.B != "hi" {
		t.Fatalf("decoded %+v", got)
	}
	if err := Decode([]byte("garbage"), &got); err == nil {
		t.Fatal("garbage decoded")
	}
}

// Property: Encode/Decode round-trips arbitrary payload structs.
func TestQuickEncodeDecode(t *testing.T) {
	type payload struct {
		N  int64
		S  string
		Bs []byte
		M  map[string]int
	}
	f := func(n int64, s string, bs []byte) bool {
		in := payload{N: n, S: s, Bs: bs, M: map[string]int{s: int(n)}}
		data, err := Encode(in)
		if err != nil {
			return false
		}
		var out payload
		if err := Decode(data, &out); err != nil {
			return false
		}
		return out.N == in.N && out.S == in.S &&
			string(out.Bs) == string(in.Bs) && out.M[s] == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// wirePayload has a binary codec, so Encode and Decode must leave gob out
// of it.
type wirePayload struct {
	N  int64
	S  string
	Bs []byte
}

func (p wirePayload) MarshalBinary() ([]byte, error) {
	b := AppendHeader(nil, 7)
	b = AppendInt(b, p.N)
	b = AppendString(b, p.S)
	return AppendBytes(b, p.Bs), nil
}

func (p *wirePayload) UnmarshalBinary(data []byte) error {
	r := NewReader(data, 7)
	*p = wirePayload{N: r.Int64(), S: r.String(), Bs: r.Bytes()}
	return r.Finish()
}

// The Go type picks the encoding: a type with a binary codec never reaches
// gob, a type without one always does, and GobDecodes counts exactly the
// latter.
func TestEncodeDecodeDispatch(t *testing.T) {
	in := wirePayload{N: -5, S: "a\x00b", Bs: []byte{0, 1}}
	before := GobDecodes()
	data := MustEncode(in)
	if want, _ := in.MarshalBinary(); string(data) != string(want) {
		t.Fatalf("Encode = % x, MarshalBinary = % x", data, want)
	}
	var out wirePayload
	if err := Decode(data, &out); err != nil || out.N != in.N || out.S != in.S || string(out.Bs) != string(in.Bs) {
		t.Fatalf("decoded %+v, err %v", out, err)
	}
	if n := GobDecodes() - before; n != 0 {
		t.Fatalf("%d gob decodes for a type with a binary codec", n)
	}
	type plain struct{ A int }
	var p plain
	if err := Decode(MustEncode(plain{A: 3}), &p); err != nil || p.A != 3 {
		t.Fatalf("gob fallback: %+v, %v", p, err)
	}
	if n := GobDecodes() - before; n != 1 {
		t.Fatalf("GobDecodes moved by %d for one gob decode", n)
	}
	// Each encoding refuses the other's bytes.
	if err := Decode(MustEncode(plain{A: 3}), &out); err == nil {
		t.Fatal("gob stream decoded as a binary payload")
	}
	if err := Decode(data, &p); err == nil {
		t.Fatal("binary payload decoded as a gob stream")
	}
}

// The reader is strict, and a failure sticks: later reads return zero
// values and Finish reports the first error.
func TestWireReaderStrict(t *testing.T) {
	good := MustEncode(wirePayload{N: 1 << 40, S: "s", Bs: []byte("b")})
	var out wirePayload
	for n := 0; n < len(good); n++ {
		if err := Decode(good[:n], &out); err == nil {
			t.Fatalf("%d-byte prefix decoded", n)
		}
	}
	for name, data := range map[string][]byte{
		"trailing byte":      append(append([]byte(nil), good...), 0),
		"gob-like first":     append([]byte{0x22}, good[1:]...),
		"other version":      append([]byte{0x00, 0x02}, good[2:]...),
		"other kind":         append([]byte{0x00, 0x01, 0x08}, good[3:]...),
		"non-minimal varint": {0x00, 0x01, 0x07, 0x82, 0x00, 0x00, 0x00, 0x00},
		"length past end":    {0x00, 0x01, 0x07, 0x02, 0x09, 's', 0x00, 0x00},
	} {
		if err := Decode(data, &out); err == nil {
			t.Errorf("%s: decoded to %+v", name, out)
		}
	}
	r := NewReader([]byte{0x00, 0x01, 0x07, 0x03, 0xff}, 7) // count 3, one byte behind it
	if n := r.Count(1); n != 0 {
		t.Fatalf("Count = %d for a count larger than the data", n)
	}
	if r.Uvarint() != 0 || r.String() != "" || r.Bytes() != nil || r.Finish() == nil {
		t.Fatal("reads after a failure did not stay failed")
	}
}

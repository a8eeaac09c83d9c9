package library

import (
	"bytes"
	"encoding"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"tez/internal/dfs"
	"tez/internal/plugin"
	"tez/internal/shuffle"
)

// hotPayloads is the hot list: one representative value of every payload
// type that is encoded or decoded per task, per partition or per fetch and
// therefore has a binary codec in payload.go. Every test below ranges over
// it, so a type added here is covered by all of them.
var hotPayloads = []any{
	DMInfo{
		ID:        shuffle.OutputID{DAG: "s.q1.7", Vertex: "map", Name: "reduce", Task: 3, Attempt: 1},
		Partition: 2, RawSize: 3 << 20, Codec: "flate", RunSizes: []int64{1 << 20, 2 << 20},
	},
	VMStats{PartitionSizes: []int64{0, 17, 1 << 40}},
	SplitAssignment{Splits: []dfs.Split{
		{Path: "/in/a", Offset: 0, Length: 4096, Hosts: []string{"n0", "n1"}},
		{Path: "/in/b", Offset: 4096, Length: 100},
	}},
	FuncConfig{Func: "wc.tokenize"},
	DFSSinkConfig{Path: "/out/wc"},
	SplitSourceConfig{Paths: []string{"/in/a", "/in/b"}, DesiredSplitSize: 1 << 16},
	OrderedPartitionedConfig{
		Partitioner: PartitionerSpec{Kind: "range", Points: [][]byte{[]byte("g"), {0x00, 0xff}, []byte("p")}},
		Combiner:    "sum", Codec: "flate", SortBytes: -1,
	},
}

// oldSplitSourceConfig is a SplitSourceConfig as encoded while the type
// still had a parallelism cap (8 here) after DesiredSplitSize; the decoder
// must refuse the extra varint, not misread it.
var oldSplitSourceConfig = plugin.AppendInt(plugin.MustEncode(
	SplitSourceConfig{Paths: []string{"/in/a", "/in/b"}, DesiredSplitSize: 1 << 16}), 8)

// oldOrderedConfig is an OrderedPartitionedConfig{Combiner: "sum"} as
// encoded while the type still had a stats switch: a 0 byte after the
// three-byte header, the empty partitioner kind and the zero point count.
// Read with today's layout its fields shift by one and a byte is left
// over, so the decoder must refuse it.
var oldOrderedConfig = slices.Insert(plugin.MustEncode(OrderedPartitionedConfig{Combiner: "sum"}), 5, 0)

// newOf returns a pointer to a fresh zero value of v's type.
func newOf(v any) any { return reflect.New(reflect.TypeOf(v)).Interface() }

// lookAlike is a method-less struct type with the fields of v's type: what
// gob sees when a type has no codec of its own.
func lookAlike(v any) reflect.Type {
	t := reflect.TypeOf(v)
	fields := make([]reflect.StructField, t.NumField())
	for i := range fields {
		fields[i] = t.Field(i)
	}
	return reflect.StructOf(fields)
}

// gobStream encodes v the way gob did before its type had a codec (on v
// itself gob would call MarshalBinary).
func gobStream(v any) []byte {
	return plugin.MustEncode(reflect.ValueOf(v).Convert(lookAlike(v)).Interface())
}

// emptyToNil rewrites every empty slice under v to nil — what a round trip
// through the codecs does, by design.
func emptyToNil(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		emptyToNil(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			emptyToNil(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.SetZero()
			return
		}
		for i := 0; i < v.Len(); i++ {
			emptyToNil(v.Index(i))
		}
	}
}

// checkRoundTrip encodes v, decodes it into a fresh value and requires the
// same value back (empty slices as nil) and, re-encoded, the same bytes.
func checkRoundTrip(t *testing.T, v any) {
	t.Helper()
	data, err := plugin.Encode(v)
	if err != nil {
		t.Fatalf("%T: encode: %v", v, err)
	}
	if len(data) < 3 || data[0] != 0x00 {
		t.Fatalf("%T: encoded as % x…, not as a binary payload", v, data[:min(len(data), 4)])
	}
	out := newOf(v)
	if err := plugin.Decode(data, out); err != nil {
		t.Fatalf("%T: decode % x: %v", v, data, err)
	}
	want := newOf(v)
	reflect.ValueOf(want).Elem().Set(reflect.ValueOf(v))
	emptyToNil(reflect.ValueOf(want))
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("%T: round trip\n got %+v\nwant %+v", v, out, want)
	}
	if again := plugin.MustEncode(reflect.ValueOf(out).Elem().Interface()); !bytes.Equal(again, data) {
		t.Fatalf("%T: re-encoded % x, first encoded % x", v, again, data)
	}
}

// Every type on the hot list implements both halves of the codec: with
// only one, plugin.Encode and plugin.Decode would pick different encodings
// (or both quietly fall back to gob). And none of them reaches gob.
func TestHotPayloadsAreBinary(t *testing.T) {
	before := plugin.GobDecodes()
	for _, v := range hotPayloads {
		if _, ok := v.(encoding.BinaryMarshaler); !ok {
			t.Errorf("%T has no MarshalBinary (value receiver)", v)
		}
		if _, ok := newOf(v).(encoding.BinaryUnmarshaler); !ok {
			t.Errorf("*%T has no UnmarshalBinary", v)
		}
		checkRoundTrip(t, v)
		checkRoundTrip(t, reflect.Zero(reflect.TypeOf(v)).Interface())
	}
	if n := plugin.GobDecodes() - before; n != 0 {
		t.Fatalf("%d gob decodes while round-tripping the hot payloads", n)
	}
}

// Property: every value of every hot type round-trips, including the ones
// testing/quick does not think of — extreme integers, empty and
// NUL-bearing strings, nil against empty slices. A field added to a type
// but not to its codec fails here.
func TestQuickPayloadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, v := range hotPayloads {
		for i := 0; i < 300; i++ {
			r, ok := quick.Value(reflect.TypeOf(v), rng)
			if !ok {
				t.Fatalf("%T: testing/quick cannot generate it", v)
			}
			checkRoundTrip(t, r.Interface())
		}
	}
	nul := "a\x00b\x00"
	for _, v := range []any{
		DMInfo{ID: shuffle.OutputID{DAG: nul, Vertex: "", Name: "\x00", Task: math.MaxInt, Attempt: math.MinInt},
			Partition: -1, RawSize: math.MinInt64, Codec: nul, RunSizes: []int64{}},
		DMInfo{RunSizes: []int64{math.MinInt64, -1, 0, math.MaxInt64}},
		VMStats{PartitionSizes: []int64{}},
		VMStats{PartitionSizes: []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}},
		SplitAssignment{Splits: []dfs.Split{}},
		SplitAssignment{Splits: []dfs.Split{{Path: nul, Offset: math.MaxInt64, Length: math.MinInt64, Hosts: []string{}}, {Hosts: []string{"", nul}}}},
		FuncConfig{Func: nul},
		DFSSinkConfig{Path: "\x00"},
		SplitSourceConfig{Paths: []string{}, DesiredSplitSize: math.MinInt64},
		SplitSourceConfig{Paths: []string{"", nul}, DesiredSplitSize: math.MaxInt64},
		OrderedPartitionedConfig{Partitioner: PartitionerSpec{Points: [][]byte{}}, SortBytes: math.MinInt64},
		OrderedPartitionedConfig{Partitioner: PartitionerSpec{Kind: nul, Points: [][]byte{nil, {}, {0x00}}}, SortBytes: math.MaxInt64},
	} {
		checkRoundTrip(t, v)
	}
	// nil and empty are one encoding, not two.
	if a, b := plugin.MustEncode(VMStats{}), plugin.MustEncode(VMStats{PartitionSizes: []int64{}}); !bytes.Equal(a, b) {
		t.Fatalf("nil sizes encode as % x, empty as % x", a, b)
	}
}

// The two encodings never pass for each other, in either direction, and
// one type's binary payload does not decode as another's.
func TestBinaryAndGobPayloadsAreDisjoint(t *testing.T) {
	for i, v := range hotPayloads {
		if err := plugin.Decode(gobStream(v), newOf(v)); err == nil {
			t.Errorf("%T: a gob stream of the same shape decoded through the binary codec", v)
		}
		bin := plugin.MustEncode(v)
		if err := plugin.Decode(bin, reflect.New(lookAlike(v)).Interface()); err == nil {
			t.Errorf("%T: its binary payload decoded through gob into a look-alike struct", v)
		}
		other := hotPayloads[(i+1)%len(hotPayloads)]
		if err := plugin.Decode(bin, newOf(other)); err == nil {
			t.Errorf("%T payload decoded as %T", v, other)
		}
	}
}

// Strictness, byte by byte: every proper prefix of a valid payload and
// every valid payload with a byte appended is an error, as is a version
// this build does not write, a non-minimal varint and a count larger than
// the bytes behind it.
func TestBinaryPayloadStrictDecode(t *testing.T) {
	for _, v := range hotPayloads {
		data := plugin.MustEncode(v)
		for n := 0; n < len(data); n++ {
			if err := plugin.Decode(data[:n], newOf(v)); err == nil {
				t.Errorf("%T: %d-byte prefix of a %d-byte payload decoded", v, n, len(data))
			}
		}
		if err := plugin.Decode(append(data[:len(data):len(data)], 0), newOf(v)); err == nil {
			t.Errorf("%T: trailing byte accepted", v)
		}
		future := append([]byte(nil), data...)
		future[1]++
		if err := plugin.Decode(future, newOf(v)); err == nil {
			t.Errorf("%T: format version %d accepted", v, future[1])
		}
	}
	head := plugin.MustEncode(VMStats{})[:3]
	for name, body := range map[string][]byte{
		"non-minimal count":     {0x81, 0x00, 0x02},
		"count beyond the data": {0x05, 0x02, 0x02},
		"count overflowing int": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"eleven-byte varint":    {0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		var s VMStats
		if err := plugin.Decode(append(head[:3:3], body...), &s); err == nil {
			t.Errorf("%s: decoded to %+v", name, s)
		}
	}
	var sc SplitSourceConfig
	if err := plugin.Decode(oldSplitSourceConfig, &sc); err == nil {
		t.Errorf("SplitSourceConfig with the deleted third field decoded to %+v", sc)
	}
	var c OrderedPartitionedConfig
	if err := plugin.Decode(oldOrderedConfig, &c); err == nil {
		t.Errorf("OrderedPartitionedConfig with the deleted stats byte decoded to %+v", c)
	}
}

// DMInfo is the payload paid per partition and per fetch: encoding is one
// allocation (the payload), decoding one per non-empty string — of a
// partition of one run, which has no run sizes.
func TestDMInfoCodecAllocations(t *testing.T) {
	info := hotPayloads[0].(DMInfo)
	info.RunSizes = nil
	var data []byte
	if n := testing.AllocsPerRun(100, func() { data, _ = info.MarshalBinary() }); n > 1 {
		t.Errorf("DMInfo.MarshalBinary: %v allocations, want at most 1", n)
	}
	var out DMInfo
	if n := testing.AllocsPerRun(100, func() { _ = plugin.Decode(data, &out) }); n > 4 {
		t.Errorf("decode with four non-empty strings: %v allocations, want at most 4", n)
	}
	info.Codec = ""
	data, _ = info.MarshalBinary()
	if n := testing.AllocsPerRun(100, func() { _ = plugin.Decode(data, &out) }); n > 3 {
		t.Errorf("decode with three non-empty strings: %v allocations, want at most 3", n)
	}
}

// FuzzPayloadCodecs feeds arbitrary bytes to the decoder of every hot
// payload type: no panic; nothing allocated beyond a small multiple of the
// input (counts are checked against the bytes that remain before any
// slice is made); a payload that decodes re-encodes to exactly the bytes
// it came from; and bytes that do not start with the binary tag — any gob
// stream, so the old encodings of these same types in the seeds — decode
// as nothing.
func FuzzPayloadCodecs(f *testing.F) {
	for _, v := range hotPayloads {
		f.Add(plugin.MustEncode(v))
		f.Add(gobStream(v))
	}
	f.Add(oldSplitSourceConfig)
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{0x42, 0xff, 0x00, 0x07, 0x80})
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, v := range hotPayloads {
			out := newOf(v)
			if err := plugin.Decode(payload, out); err != nil {
				continue
			}
			if payload[0] != 0x00 {
				t.Fatalf("%T: decoded % x, which is not a binary payload", v, payload)
			}
			if again := plugin.MustEncode(reflect.ValueOf(out).Elem().Interface()); !bytes.Equal(again, payload) {
				t.Fatalf("%T: % x decoded to %+v, which encodes as % x", v, payload, out, again)
			}
			// Every slice element costs at least a byte of input, so what
			// was allocated is O(len(payload)).
			switch o := out.(type) {
			case *DMInfo:
				if len(o.RunSizes) > len(payload) {
					t.Fatalf("%d run sizes from %d bytes", len(o.RunSizes), len(payload))
				}
			case *VMStats:
				if len(o.PartitionSizes) > len(payload) {
					t.Fatalf("%d sizes from %d bytes", len(o.PartitionSizes), len(payload))
				}
			case *SplitAssignment:
				if 4*len(o.Splits) > len(payload) {
					t.Fatalf("%d splits from %d bytes", len(o.Splits), len(payload))
				}
			case *SplitSourceConfig:
				if len(o.Paths) > len(payload) {
					t.Fatalf("%d paths from %d bytes", len(o.Paths), len(payload))
				}
			case *OrderedPartitionedConfig:
				if len(o.Partitioner.Points) > len(payload) {
					t.Fatalf("%d points from %d bytes", len(o.Partitioner.Points), len(payload))
				}
			}
		}
	})
}

// TestOrderedConfigIsZero: OrderedEdge encodes no payload for a config
// isZero accepts, so isZero must notice every field — a field added to the
// struct and its codec but not to isZero would be dropped from every edge
// that sets only it. Each leaf field is set alone, by reflection.
func TestOrderedConfigIsZero(t *testing.T) {
	if !(OrderedPartitionedConfig{}).isZero() {
		t.Fatal("the zero config is not zero")
	}
	rng := rand.New(rand.NewSource(3))
	var setEach func(root reflect.Value, at reflect.Value, path string)
	setEach = func(root, at reflect.Value, path string) {
		for i := 0; i < at.NumField(); i++ {
			f, name := at.Field(i), path+"."+at.Type().Field(i).Name
			if f.Kind() == reflect.Struct {
				setEach(root, f, name)
				continue
			}
			for f.IsZero() || (f.Kind() == reflect.Slice && f.Len() == 0) {
				v, ok := quick.Value(f.Type(), rng)
				if !ok {
					t.Fatalf("%s: testing/quick cannot generate a %s", name, f.Type())
				}
				f.Set(v)
			}
			if root.Interface().(OrderedPartitionedConfig).isZero() {
				t.Errorf("isZero ignores %s", name)
			}
			f.Set(reflect.Zero(f.Type()))
		}
	}
	root := reflect.New(reflect.TypeOf(OrderedPartitionedConfig{})).Elem()
	setEach(root, root, "OrderedPartitionedConfig")
}

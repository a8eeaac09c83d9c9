package library

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestRecordRoundTrip(t *testing.T) {
	cases := []struct{ k, v string }{
		{"key", "value"},
		{"", "value"},
		{"key", ""},
		{"", ""},
	}
	for _, c := range cases {
		buf := AppendRecord(nil, []byte(c.k), []byte(c.v))
		if len(buf) != RecordSize([]byte(c.k), []byte(c.v)) {
			t.Fatalf("RecordSize mismatch for %q/%q", c.k, c.v)
		}
		k, v, n, err := DecodeRecord(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("decode %q/%q: n=%d err=%v", c.k, c.v, n, err)
		}
		if string(k) != c.k || string(v) != c.v {
			t.Fatalf("decode got %q/%q", k, v)
		}
	}
}

func TestDecodePaddingAndEmpty(t *testing.T) {
	if _, _, n, err := DecodeRecord(nil); n != 0 || err != nil {
		t.Fatalf("empty: n=%d err=%v", n, err)
	}
	if _, _, n, err := DecodeRecord([]byte{0x00, 0xFF}); n != 0 || err != nil {
		t.Fatalf("padding: n=%d err=%v", n, err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	// Header says 10-byte key but buffer is short.
	buf := []byte{11, 'a', 'b'}
	if _, _, _, err := DecodeRecord(buf); err == nil {
		t.Fatal("truncated key accepted")
	}
}

func TestBufferReaderStream(t *testing.T) {
	var buf []byte
	for i := 0; i < 100; i++ {
		buf = AppendRecord(buf, []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	r := NewBufferReader(buf)
	n := 0
	for r.Next() {
		if string(r.Key()) != fmt.Sprintf("k%03d", n) {
			t.Fatalf("record %d key %q", n, r.Key())
		}
		n++
	}
	if r.Err() != nil || n != 100 {
		t.Fatalf("n=%d err=%v", n, r.Err())
	}
	if cnt, err := countRecords(buf); err != nil || cnt != 100 {
		t.Fatalf("countRecords = %d, %v", cnt, err)
	}
}

// countRecords counts the records an unpadded reader reads from buf.
func countRecords(buf []byte) (int, error) {
	r := NewBufferReader(buf)
	n := 0
	for r.Next() {
		n++
	}
	return n, r.Err()
}

// padRecords lays records out as a record file does: pad[i] zero bytes
// before record i (cycling through pad), and pad[0] more after the last.
func padRecords(pairs [][2][]byte, pad []int) []byte {
	var buf []byte
	for i, p := range pairs {
		buf = append(buf, make([]byte, pad[i%len(pad)])...)
		buf = AppendRecord(buf, p[0], p[1])
	}
	return append(buf, make([]byte, pad[0])...)
}

// The padded reader reads a block-padded buffer in place: every record, in
// order, whatever padding sits before, between and after them — including
// records whose keys and values themselves start with or consist of zero
// bytes — and keys and values alias the buffer it was given.
func TestPaddedReaderSkipsPaddingInPlace(t *testing.T) {
	pairs := [][2][]byte{
		{[]byte("a"), []byte("1")},
		{{0x00}, {0x00, 0x00}},
		{nil, nil},
		{[]byte("b"), bytes.Repeat([]byte{0x00}, 300)},
		{[]byte("c"), []byte("3")},
	}
	for _, pad := range [][]int{{0}, {1}, {3, 0, 7}, {0, 513}} {
		buf := padRecords(pairs, pad)
		r := NewPaddedReader(buf)
		for i, p := range pairs {
			if !r.Next() {
				t.Fatalf("pad %v: stopped before record %d (err %v)", pad, i, r.Err())
			}
			if !bytes.Equal(r.Key(), p[0]) || !bytes.Equal(r.Value(), p[1]) {
				t.Fatalf("pad %v: record %d = %q/%q", pad, i, r.Key(), r.Value())
			}
		}
		if r.Next() || r.Err() != nil {
			t.Fatalf("pad %v: after the last record: err %v", pad, r.Err())
		}
	}
	// In place: the key handed out is the buffer's own bytes.
	buf := padRecords(pairs, []int{5})
	r := NewPaddedReader(buf)
	r.Next()
	buf[bytes.IndexByte(buf, 'a')] = 'z'
	if string(r.Key()) != "z" {
		t.Fatalf("key %q does not alias the buffer", r.Key())
	}
	// An unpadded reader still ends at the first padding byte.
	if n, err := countRecords(padRecords(pairs, []int{0, 4})); err != nil || n != 1 {
		t.Fatalf("unpadded reader over padding: %d records, err %v", n, err)
	}
	// All padding, and nothing at all.
	for _, buf := range [][]byte{nil, make([]byte, 64)} {
		if r := NewPaddedReader(buf); r.Next() || r.Err() != nil {
			t.Fatalf("padding-only buffer of %d bytes: err %v", len(buf), r.Err())
		}
	}
}

// A record corrupted in mid-stream ends the iteration with an error. It
// used to end it silently (StripPadding returned the prefix that decoded),
// so a damaged block dropped the rest of its split's rows unnoticed.
func TestPaddedReaderSurfacesCorruption(t *testing.T) {
	var pairs [][2][]byte
	for i := 0; i < 10; i++ {
		pairs = append(pairs, [2][]byte{[]byte(fmt.Sprintf("k%d", i)), []byte("value")})
	}
	buf := padRecords(pairs, []int{2})
	rec := len(AppendRecord(nil, pairs[0][0], pairs[0][1]))
	// Record 4's key length now claims more bytes than the buffer holds.
	buf[2+4*(rec+2)] = 0xff
	r := NewPaddedReader(buf)
	n := 0
	for r.Next() {
		n++
	}
	if n != 4 || r.Err() == nil {
		t.Fatalf("read %d records, err %v; want 4 and an error", n, r.Err())
	}
	if r.Next() {
		t.Fatal("reader advanced past the corrupt record")
	}
}

func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(pairs [][2][]byte) bool {
		var buf []byte
		for _, p := range pairs {
			buf = AppendRecord(buf, p[0], p[1])
		}
		r := NewBufferReader(buf)
		for _, p := range pairs {
			if !r.Next() {
				return false
			}
			if !bytes.Equal(r.Key(), p[0]) || !bytes.Equal(r.Value(), p[1]) {
				return false
			}
		}
		return !r.Next() && r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	// The same records behind arbitrary padding, through the padded reader.
	g := func(pairs [][2][]byte, pad []uint8) bool {
		pads := []int{0}
		for _, p := range pad {
			pads = append(pads, int(p))
		}
		r := NewPaddedReader(padRecords(pairs, pads))
		for _, p := range pairs {
			if !r.Next() || !bytes.Equal(r.Key(), p[0]) || !bytes.Equal(r.Value(), p[1]) {
				return false
			}
		}
		return !r.Next() && r.Err() == nil
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHashPartitionerRangeAndDeterminism(t *testing.T) {
	p := HashPartitioner{}
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		got := p.Partition(k, 7)
		if got < 0 || got >= 7 {
			t.Fatalf("partition %d out of range", got)
		}
		if got != p.Partition(k, 7) {
			t.Fatal("non-deterministic")
		}
	}
	if p.Partition([]byte("x"), 1) != 0 {
		t.Fatal("single partition must be 0")
	}
}

func TestHashPartitionerSpreads(t *testing.T) {
	p := HashPartitioner{}
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		counts[p.Partition([]byte(fmt.Sprintf("key-%d", i)), 8)]++
	}
	for i, c := range counts {
		if c < 500 || c > 1500 {
			t.Fatalf("partition %d holds %d of 8000 (badly skewed)", i, c)
		}
	}
}

func TestRangePartitioner(t *testing.T) {
	rp := &RangePartitioner{Points: [][]byte{[]byte("g"), []byte("p")}}
	cases := map[string]int{"a": 0, "g": 0, "h": 1, "p": 1, "q": 2, "zz": 2}
	for k, want := range cases {
		if got := rp.Partition([]byte(k), 3); got != want {
			t.Fatalf("Partition(%q) = %d, want %d", k, got, want)
		}
	}
}

// Property: range partitioning respects ordering — if k1 <= k2 then
// partition(k1) <= partition(k2).
func TestQuickRangePartitionerMonotone(t *testing.T) {
	f := func(keys [][]byte, a, b []byte) bool {
		pts := SplitPoints(sortedCopy(keys), 4)
		rp := &RangePartitioner{Points: pts}
		if bytes.Compare(a, b) > 0 {
			a, b = b, a
		}
		return rp.Partition(a, len(pts)+1) <= rp.Partition(b, len(pts)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sortedCopy(keys [][]byte) [][]byte {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = append([]byte(nil), k...)
	}
	sortBytes(out)
	return out
}

func sortBytes(b [][]byte) {
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && bytes.Compare(b[j], b[j-1]) < 0; j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
}

func TestSplitPointsBalanced(t *testing.T) {
	var sample [][]byte
	for i := 0; i < 100; i++ {
		sample = append(sample, []byte(fmt.Sprintf("%04d", i)))
	}
	pts := SplitPoints(sample, 4)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	rp := &RangePartitioner{Points: pts}
	counts := make([]int, 4)
	for _, k := range sample {
		counts[rp.Partition(k, 4)]++
	}
	for i, c := range counts {
		if c < 15 || c > 40 {
			t.Fatalf("range %d holds %d of 100", i, c)
		}
	}
}

func TestMergeAndGroup(t *testing.T) {
	runA := encodePairs([]pair{{[]byte("a"), []byte("1")}, {[]byte("c"), []byte("2")}})
	runB := encodePairs([]pair{{[]byte("a"), []byte("3")}, {[]byte("b"), []byte("4")}})
	runC := []byte{} // empty run
	g := newGroupedReader(newMergeReader([][]byte{runA, runB, runC}))
	type group struct {
		key  string
		vals int
	}
	var got []group
	for g.Next() {
		got = append(got, group{string(g.Key()), len(g.Values())})
	}
	if g.Err() != nil {
		t.Fatal(g.Err())
	}
	want := []group{{"a", 2}, {"b", 1}, {"c", 1}}
	if len(got) != len(want) {
		t.Fatalf("groups = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("group %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Property: merging sorted runs yields a globally sorted stream containing
// every pair exactly once.
func TestQuickMergeSorted(t *testing.T) {
	f := func(raw [][]uint16) bool {
		var runs [][]byte
		total := 0
		for _, rw := range raw {
			ps := make([]pair, 0, len(rw))
			for _, x := range rw {
				k := []byte(fmt.Sprintf("%05d", x))
				ps = append(ps, pair{k, []byte("v")})
			}
			sortPairs(ps)
			total += len(ps)
			runs = append(runs, encodePairs(ps))
		}
		m := newMergeReader(runs)
		var prev []byte
		n := 0
		for m.Next() {
			if prev != nil && bytes.Compare(m.Key(), prev) < 0 {
				return false
			}
			prev = append(prev[:0], m.Key()...)
			n++
		}
		return m.Err() == nil && n == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

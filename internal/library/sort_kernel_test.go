package library

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"testing"

	"tez/internal/event"
	"tez/internal/metrics"
	"tez/internal/plugin"
	"tez/internal/row"
	"tez/internal/runtime"
)

// TestHashPartitionerMatchesFNV pins the inlined hash to hash/fnv's
// FNV-1a: partition assignment, and with it every golden byte downstream,
// depends on the exact values.
func TestHashPartitionerMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := HashPartitioner{}
	for i := 0; i < 5000; i++ {
		key := make([]byte, rng.Intn(40))
		rng.Read(key)
		n := 2 + rng.Intn(200)
		h := fnv.New32a()
		h.Write(key)
		if got, want := p.Partition(key, n), int(h.Sum32()%uint32(n)); got != want {
			t.Fatalf("Partition(%x, %d) = %d, hash/fnv says %d", key, n, got, want)
		}
	}
}

// adversarialRecords draws a record multiset built to defeat a prefix
// index: keys that share more than eight leading bytes, keys that differ
// only by trailing zero bytes, empty keys and values, equal keys with
// differing values, exact duplicates, and row-encoded ints, floats and
// strings (whose tag bytes and float layout put the variation late).
func adversarialRecords(rng *rand.Rand, n int) []pair {
	stems := [][]byte{
		nil, {0}, {0, 0}, []byte("ab"), []byte("ab\x00"), []byte("ab\x00\x00"),
		[]byte("abcdefgh"), []byte("abcdefgh\x00"), []byte("abcdefghi"), []byte("abcdefghij"),
		[]byte("abcdefg"), []byte("abcdefg\x00"), []byte("shared-prefix-longer-than-eight-"),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0},
	}
	values := [][]byte{nil, {0}, []byte("1"), []byte("2"), []byte("10"), []byte("value")}
	ps := make([]pair, 0, n)
	for len(ps) < n {
		var k []byte
		switch rng.Intn(8) {
		case 0:
			k = stems[rng.Intn(len(stems))]
		case 1:
			k = append(append([]byte(nil), stems[rng.Intn(len(stems))]...), byte(rng.Intn(3)))
		case 2:
			k = []byte(fmt.Sprintf("shared-prefix-longer-than-eight-%03d", rng.Intn(40)))
		case 3:
			k = row.EncodeKey(nil, row.Int(int64(rng.Intn(2000)-1000)))
		case 4:
			k = row.EncodeKey(nil, row.Float(rng.NormFloat64()))
		case 5:
			k = row.EncodeKey(nil, row.String(fmt.Sprintf("Customer#%05d", rng.Intn(50))), row.Int(int64(rng.Intn(5))))
		case 6:
			k = make([]byte, rng.Intn(12))
			rng.Read(k)
		default:
			k = []byte(strconv.Itoa(rng.Intn(30)))
		}
		ps = append(ps, pair{k, values[rng.Intn(len(values))]})
		if rng.Intn(4) == 0 {
			ps = append(ps, ps[len(ps)-1]) // exact duplicate
		}
	}
	return ps[:n]
}

// checkSortOrder sorts recs through a sortBuffer over the given partition
// count and compares every partition's span, record by record, with the
// oracle: the same records under slices.SortFunc with the plain
// (partition, key, value) byte comparator.
func checkSortOrder(t testing.TB, sb *sortBuffer, recs []pair, parts int) {
	t.Helper()
	type tagged struct {
		part int
		pair
	}
	hp := HashPartitioner{}
	sb.reset()
	want := make([]tagged, len(recs))
	for i, r := range recs {
		part := hp.Partition(r.k, parts)
		sb.add(part, r.k, r.v)
		want[i] = tagged{part, r}
	}
	slices.SortFunc(want, func(a, b tagged) int {
		if a.part != b.part {
			return a.part - b.part
		}
		return compareKV(a.pair, b.pair)
	})
	sb.sort(parts)
	if len(sb.refs) != len(recs) {
		t.Fatalf("sort kept %d of %d records", len(sb.refs), len(recs))
	}
	i := 0
	for p := 0; p < parts; p++ {
		for _, r := range sb.partSpan(p) {
			r := r
			if i >= len(want) || want[i].part != p || !bytes.Equal(sb.key(&r), want[i].k) || !bytes.Equal(sb.val(&r), want[i].v) {
				t.Fatalf("record %d: partition %d holds (%q, %q), oracle %+v", i, p, sb.key(&r), sb.val(&r), want[min(i, len(want)-1)])
			}
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("partition spans cover %d of %d records", i, len(want))
	}
}

// TestSortMatchesOracle: the prefix index sort is the full comparator's
// order, on adversarial multisets, across partition counts, with the
// buffer (and so its scratch) reused from one sort to the next.
func TestSortMatchesOracle(t *testing.T) {
	sb := new(sortBuffer)
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(700)
		if seed%10 == 0 {
			n = 5000
		}
		checkSortOrder(t, sb, adversarialRecords(rng, n), 1+rng.Intn(9))
	}
	checkSortOrder(t, sb, nil, 3)
	checkSortOrder(t, sb, []pair{{nil, nil}}, 1)
}

// FuzzSortOrder lets the fuzzer pick the record bytes: the input is cut
// into records at 0xfe bytes and into key and value at the first 0xfd.
func FuzzSortOrder(f *testing.F) {
	f.Add([]byte("ab\xfd1\xfeab\x00\xfd1\xfeab\xfd0\xfe\xfd\xfeabcdefghi\xfdx\xfeabcdefghj\xfd"), uint8(3))
	f.Add([]byte("k\xfe\x00\xfe\x00\x00\xfek\xfdv\xfek"), uint8(1))
	f.Add(bytes.Repeat([]byte("same-long-key-over-eight\xfd1\xfe"), 20), uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, parts uint8) {
		var recs []pair
		for _, rec := range bytes.Split(data, []byte{0xfe}) {
			k, v, _ := bytes.Cut(rec, []byte{0xfd})
			recs = append(recs, pair{k, v})
		}
		checkSortOrder(t, new(sortBuffer), recs, int(parts)%16+1)
	})
}

// sortedRuns deals recs into k runs at random and sorts each — what k
// spills of the same partition look like.
func sortedRuns(rng *rand.Rand, recs []pair, k int) [][]byte {
	buckets := make([][]pair, k)
	for _, r := range recs {
		i := rng.Intn(k)
		buckets[i] = append(buckets[i], r)
	}
	runs := make([][]byte, k)
	for i, b := range buckets {
		sortPairs(b)
		runs[i] = encodePairs(b) // nil for an empty bucket: an empty run
	}
	return runs
}

// TestMergeMatchesOracle: the k-way merge of random sorted runs is, byte
// for byte, the concatenation sorted by the oracle — read through the
// reader interface, encoded without a combiner and through one, and equal
// to what the container/heap merge produced.
func TestMergeMatchesOracle(t *testing.T) {
	identity := func(key []byte, values [][]byte, out runtime.KVWriter) error {
		for _, v := range values {
			if err := out.Write(key, v); err != nil {
				return err
			}
		}
		return nil
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := adversarialRecords(rng, rng.Intn(900))
		runs := sortedRuns(rng, recs, 1+rng.Intn(12))
		all := slices.Clone(recs)
		sortPairs(all)
		want := encodePairs(all)

		got, err := encodeStream(newMergeReader(runs), nil, nil, nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("seed %d: encoded merge differs from the oracle (err %v, %d vs %d bytes)", seed, err, len(got), len(want))
		}
		got, err = encodeStream(newMergeReader(runs), identity, nil, nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("seed %d: combining merge differs from the oracle (err %v, %d vs %d bytes)", seed, err, len(got), len(want))
		}
		if heaped := encodePairs(heapMergePairs(runs)); !bytes.Equal(heaped, want) {
			t.Fatalf("seed %d: reference heap merge differs from the oracle", seed)
		}
		var viaReader []byte
		m := newMergeReader(runs)
		for m.Next() {
			viaReader = AppendRecord(viaReader, m.Key(), m.Value())
		}
		if m.Err() != nil || !bytes.Equal(viaReader, want) {
			t.Fatalf("seed %d: mergeReader.Next differs from the oracle (err %v)", seed, m.Err())
		}
	}
}

// TestMergeSummingCombinerMatchesOracle: with a real (summing) combiner,
// runs combined one by one as a producer spills them and summed again
// over their merge, as the reducer does, equal combining the oracle-sorted
// whole.
func TestMergeSummingCombinerMatchesOracle(t *testing.T) {
	sum, err := lookupCombiner("test.sum")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var recs []pair
		for i := 0; i < 2000; i++ {
			recs = append(recs, pair{[]byte(fmt.Sprintf("long-shared-word-%03d", rng.Intn(150))), []byte(strconv.Itoa(rng.Intn(9)))})
		}
		runs := sortedRuns(rng, recs, 7)
		for i, run := range runs {
			if runs[i], err = encodeStream(NewBufferReader(run), sum, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		got, err := encodeStream(newMergeReader(runs), sum, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		all := slices.Clone(recs)
		sortPairs(all)
		want, err := encodeStream(NewBufferReader(encodePairs(all)), sum, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: combined merge differs from combining the sorted whole", seed)
		}
	}
}

// TestMergeSurfacesCorruptRun: a truncated or corrupt run — at its first
// record or in the middle of a stretch — ends the merge with Err set, on
// every path.
func TestMergeSurfacesCorruptRun(t *testing.T) {
	good := encodePairs([]pair{{[]byte("a"), []byte("1")}, {[]byte("c"), []byte("2")}, {[]byte("e"), []byte("3")}})
	other := encodePairs([]pair{{[]byte("b"), []byte("1")}, {[]byte("d"), []byte("2")}})
	for name, bad := range map[string][]byte{
		"truncated-tail":  good[:len(good)-1],
		"truncated-first": good[:2],
		"corrupt-header":  append(append([]byte(nil), good[:4]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff),
	} {
		runs := [][]byte{other, bad}
		if _, err := encodeStream(newMergeReader(runs), nil, nil, nil); err == nil {
			t.Errorf("%s: encoded merge reported no error", name)
		}
		m := newMergeReader(runs)
		for m.Next() {
		}
		if m.Err() == nil {
			t.Errorf("%s: mergeReader reported no error", name)
		}
		g := newGroupedReader(newMergeReader(runs))
		for g.Next() {
		}
		if g.Err() == nil {
			t.Errorf("%s: groupedReader reported no error", name)
		}
	}
}

// produceUnderArenaLimit runs one ordered producer attempt, unbounded by
// any sort budget, with the arena limit lowered to arenaMax (0 leaves it
// alone), and returns the events it closed with.
func produceUnderArenaLimit(t *testing.T, svc runtime.Services, parts int, recs []pair, arenaMax int64) []event.Event {
	t.Helper()
	out := &OrderedPartitionedKVOutput{}
	cfg := OrderedPartitionedConfig{SortBytes: -1}
	ctx := ctxFor(svc, runtime.Meta{DAG: "d", Vertex: "map"}, "red", plugin.MustEncode(cfg), parts)
	if err := out.Initialize(ctx); err != nil {
		t.Fatal(err)
	}
	if arenaMax > 0 {
		out.arenaMax = arenaMax
	}
	for _, r := range recs {
		if err := out.write(r.k, r.v); err != nil {
			t.Fatal(err)
		}
	}
	events, err := out.Close()
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestArenaLimitSpillsBeforeWrapping: index entries address the arena
// with 32 bits, so an unbounded buffer must spill a run before the arena
// outgrows them. With the limit injected small, an unbounded producer
// spills, its output is byte-identical to an unconstrained one's, and a
// record the arena could never hold is refused rather than wrapped.
func TestArenaLimitSpillsBeforeWrapping(t *testing.T) {
	const parts = 3
	rng := rand.New(rand.NewSource(3))
	recs := adversarialRecords(rng, 4000)
	readAll := func(arenaMax int64) ([]map[string]string, int64) {
		svc := testServices(t)
		svc.Counters = metrics.NewCounters()
		events := produceUnderArenaLimit(t, svc, parts, recs, arenaMax)
		got := make([]map[string]string, parts)
		for p := range got {
			got[p] = consumeGrouped(t, svc, events, p, 1)
		}
		return got, svc.Counters.Get("SHUFFLE_SPILLS")
	}
	want, spills := readAll(0)
	if spills != 0 {
		t.Fatalf("unconstrained run spilled %d times", spills)
	}
	got, spills := readAll(2048)
	if spills < 2 {
		t.Fatalf("%d spills under a 2 KiB arena limit, want several", spills)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("grouped output differs from the unconstrained run")
	}

	out := &OrderedPartitionedKVOutput{}
	if err := out.Initialize(ctxFor(testServices(t), runtime.Meta{DAG: "d", Vertex: "map"}, "red", nil, parts)); err != nil {
		t.Fatal(err)
	}
	out.arenaMax = 64
	if err := out.write(make([]byte, 40), make([]byte, 40)); err == nil {
		t.Fatal("a record larger than the arena limit was accepted")
	}
}

// TestSmallTaskFixedCost guards the per-task cost of the ordered output:
// an 800-record Initialize→Write→Close, the size of a service DAG's map
// task, allocates no more objects or bytes than it did under the
// comparator sort and the container/heap merge — the radix scratch must
// come from the pooled sortBuffer, not be sized per task. That code
// measured 90 objects and 15 456–15 462 bytes per task here (the bytes
// move a little with goroutine start-up in Close); a per-task scratch
// alone would add 19 200. The second input is the arena's own bar: 12 000
// `word-NNNN` records over 8 partitions at no more than 0.01 objects a
// record (a boxed pair per record, which the arena replaced, cost 2.0);
// it measures 74 objects and 153 KB, 144 KB of which is the copy the
// shuffle service keeps of the registered output.
func TestSmallTaskFixedCost(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	wordKeys := make([][]byte, 12_000)
	for i := range wordKeys {
		wordKeys[i] = []byte(fmt.Sprintf("word-%04d", i%997))
	}
	// No collection while measuring: one would empty the buffer pools and
	// charge their refill to whichever task ran next.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		parts     int
		keys      [][]byte
		maxAllocs float64
		maxBytes  uint64
	}{
		{2, zipfWords(1, 300, 800), 90, 16_000},
		{8, wordKeys, 120, 170_000},
	} {
		svc := testServices(t)
		one := []byte("1")
		task := func() {
			produceCfg(t, svc, nil, 0, c.parts, func(w runtime.KVWriter) {
				for _, k := range c.keys {
					if err := w.Write(k, one); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
		task()
		if allocs := testing.AllocsPerRun(20, task); allocs > c.maxAllocs {
			t.Errorf("a task of %d records allocates %.0f objects, the ceiling is %.0f", len(c.keys), allocs, c.maxAllocs)
		}
		// TotalAlloc is process-wide, so a round also counts whatever
		// goroutines left by earlier tests allocate meanwhile: the least of
		// three rounds is the task's own.
		const runs = 200
		got := uint64(math.MaxUint64)
		for round := 0; round < 3; round++ {
			var m0, m1 goruntime.MemStats
			goruntime.ReadMemStats(&m0)
			for i := 0; i < runs; i++ {
				task()
			}
			goruntime.ReadMemStats(&m1)
			got = min(got, (m1.TotalAlloc-m0.TotalAlloc)/runs)
		}
		if got > c.maxBytes {
			t.Errorf("a task of %d records allocates %d bytes, the ceiling is %d", len(c.keys), got, c.maxBytes)
		}
	}
}

// zipfWords draws n word-shaped keys with Zipf frequencies from a fixed
// vocabulary — natural text, the shape of a word-count spill: a few hot
// keys, a long tail, 4–9 bytes each.
func zipfWords(seed int64, vocab, n int) [][]byte {
	letters := rand.New(rand.NewSource(int64(vocab)))
	words := make([][]byte, vocab)
	for i := range words {
		w := make([]byte, 4+i%6)
		for j := range w {
			w[j] = byte('a' + letters.Intn(26))
		}
		words[i] = w
	}
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 10, uint64(vocab-1))
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = words[z.Uint64()]
	}
	return keys
}

// BenchmarkSortBufferSort times the map-side sort kernel alone on one
// 50k-record spill of Zipf words over 4 partitions.
func BenchmarkSortBufferSort(b *testing.B) {
	const parts = 4
	keys := zipfWords(1, 5000, 50_000)
	hp := HashPartitioner{}
	sb := new(sortBuffer)
	one := []byte("1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sb.reset()
		for _, k := range keys {
			sb.add(hp.Partition(k, parts), k, one)
		}
		b.StartTimer()
		sb.sort(parts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/record")
}

// BenchmarkMergeReader times the k-way merge kernel alone: nine sorted
// runs, each one partition's share of such a spill, read record by record
// as the grouped reader reads them.
func BenchmarkMergeReader(b *testing.B) {
	const runs = 9
	var encoded [][]byte
	records := 0
	for r := 0; r < runs; r++ {
		var ps []pair
		for _, k := range zipfWords(int64(r+1), 5000, 12_500) {
			ps = append(ps, pair{k, []byte("1")})
		}
		sortPairs(ps)
		encoded = append(encoded, encodePairs(ps))
		records += len(ps)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := newMergeReader(encoded)
		for m.Next() {
		}
		if m.Err() != nil {
			b.Fatal(m.Err())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}

package library

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tez/internal/event"
	"tez/internal/metrics"
	"tez/internal/plugin"
	"tez/internal/runtime"
	"tez/internal/shuffle"
	"tez/internal/timeline"
)

func init() {
	// Integer-sum combiner used throughout the sort/spill tests. Summing
	// is associative, so combining per spill then again at the merge
	// yields the same bytes as combining once over everything.
	RegisterCombineFunc("test.sum", func(key []byte, values [][]byte, out runtime.KVWriter) error {
		sum := 0
		for _, v := range values {
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return err
			}
			sum += n
		}
		return out.Write(key, []byte(strconv.Itoa(sum)))
	})
}

// produceCfg runs one ordered producer with the given payload config and
// services, writing via the supplied function, and returns the emitted
// events plus the registered output id.
func produceCfg(t *testing.T, svc runtime.Services, cfg *OrderedPartitionedConfig, task, parts int, write func(w runtime.KVWriter)) ([]event.Event, shuffle.OutputID) {
	t.Helper()
	var payload []byte
	if cfg != nil {
		payload = plugin.MustEncode(*cfg)
	}
	out := &OrderedPartitionedKVOutput{}
	meta := runtime.Meta{DAG: "d", Vertex: "map", Task: task, Attempt: 0}
	if err := out.Initialize(ctxFor(svc, meta, "red", payload, parts)); err != nil {
		t.Fatal(err)
	}
	wAny, err := out.Writer()
	if err != nil {
		t.Fatal(err)
	}
	write(wAny.(runtime.KVWriter))
	events, err := out.Close()
	if err != nil {
		t.Fatal(err)
	}
	id := shuffle.OutputID{DAG: "d", Vertex: "map", Name: "red", Task: task, Attempt: 0}
	return events, id
}

func writeWordRecords(n int) func(w runtime.KVWriter) {
	return func(w runtime.KVWriter) {
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("word-%03d", i%97))
			if err := w.Write(k, []byte("1")); err != nil {
				panic(err)
			}
		}
	}
}

// TestSpillOutputByteIdentical is the spill-path acceptance test: a
// SortBytes-constrained run must spill more than once, the combiner must
// shrink the spilled data, and the spilled producer ships its sorted runs
// unmerged — DMInfo.RunSizes tiles every partition, no merge time is
// charged — while the grouped stream a consumer reads from it equals the
// unconstrained producer's, key by key and every value in order. With a
// combiner the runs were combined one by one, so the values differ and
// the reduce output (the sum per key) must be equal instead.
func TestSpillOutputByteIdentical(t *testing.T) {
	const parts, records = 3, 5000
	for _, combiner := range []string{"", "test.sum"} {
		t.Run("combiner="+combiner, func(t *testing.T) {
			read := func(cfg *OrderedPartitionedConfig, ctr *metrics.Counters) ([][]string, []event.Event) {
				svc := testServices(t)
				svc.Counters = ctr
				events, _ := produceCfg(t, svc, cfg, 0, parts, writeWordRecords(records))
				got := make([][]string, parts)
				for p := range got {
					got[p] = groupedStream(t, svc, events, p, 1, combiner != "")
				}
				return got, events
			}
			ctr := metrics.NewCounters()
			constrained, events := read(&OrderedPartitionedConfig{SortBytes: 4096, Combiner: combiner}, ctr)
			unconstrained, _ := read(&OrderedPartitionedConfig{Combiner: combiner}, nil)
			if spills := ctr.Get("SHUFFLE_SPILLS"); spills <= 1 {
				t.Fatalf("SHUFFLE_SPILLS = %d, want > 1", spills)
			}
			if ctr.Get("SHUFFLE_SORT_TIME_NS") <= 0 || ctr.Get("SHUFFLE_MERGE_TIME_NS") != 0 {
				t.Fatalf("want sort time and no merge time: %v", ctr)
			}
			if combiner != "" {
				in, out := ctr.Get("COMBINE_INPUT_RECORDS"), ctr.Get("COMBINE_OUTPUT_RECORDS")
				if in == 0 || out == 0 || out >= in {
					t.Fatalf("combiner did not reduce records: in=%d out=%d", in, out)
				}
			}
			for _, ev := range events {
				if dm, ok := ev.(event.DataMovement); ok {
					var info DMInfo
					if err := plugin.Decode(dm.Payload, &info); err != nil {
						t.Fatal(err)
					}
					if len(info.RunSizes) < 2 {
						t.Fatalf("partition %d announced %d run sizes, want one per spill", info.Partition, len(info.RunSizes))
					}
				}
			}
			for p := range constrained {
				if !reflect.DeepEqual(constrained[p], unconstrained[p]) {
					t.Fatalf("partition %d differs: spilled %d groups vs %d", p, len(constrained[p]), len(unconstrained[p]))
				}
			}
		})
	}
}

// groupedStream reads partition p of the producers' events through a
// grouped input and returns its groups in order, each "key=v1,v2,…," —
// or "key=sum" with sum set, the reduce output of test.sum.
func groupedStream(t *testing.T, svc runtime.Services, events []event.Event, partition, srcTasks int, sum bool) []string {
	t.Helper()
	g := groupedInput(t, svc, events, partition, srcTasks)
	var got []string
	for g.Next() {
		line := string(g.Key()) + "="
		total := 0
		for _, v := range g.Values() {
			n, _ := strconv.Atoi(string(v))
			total += n
			line += string(v) + ","
		}
		if sum {
			line = fmt.Sprintf("%s=%d", g.Key(), total)
		}
		got = append(got, line)
	}
	if g.Err() != nil {
		t.Fatal(g.Err())
	}
	return got
}

// consumeGrouped routes the producers' partition-p movements into a
// grouped input and drains it into a key->joined-values map.
func consumeGrouped(t *testing.T, svc runtime.Services, events []event.Event, partition, srcTasks int) map[string]string {
	t.Helper()
	g := groupedInput(t, svc, events, partition, srcTasks)
	got := map[string]string{}
	for g.Next() {
		var buf bytes.Buffer
		for _, v := range g.Values() {
			buf.Write(v)
			buf.WriteByte(',')
		}
		got[string(g.Key())] = buf.String()
	}
	if g.Err() != nil {
		t.Fatal(g.Err())
	}
	return got
}

// groupedInput routes the producers' partition-p movements into a grouped
// input and returns its reader.
func groupedInput(t *testing.T, svc runtime.Services, events []event.Event, partition, srcTasks int) runtime.GroupedKVReader {
	t.Helper()
	in := &OrderedGroupedKVInput{}
	meta := runtime.Meta{DAG: "d", Vertex: "red", Task: partition, Attempt: 0}
	ctx := ctxFor(svc, meta, "map", nil, srcTasks)
	if err := in.Initialize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	for _, ev := range events {
		dm, ok := ev.(event.DataMovement)
		if !ok || dm.SrcOutputIndex != partition {
			continue
		}
		dm.TargetVertex = "red"
		dm.TargetTask = partition
		dm.TargetInput = "map"
		dm.TargetInputIndex = dm.SrcTask
		if err := in.HandleEvent(dm); err != nil {
			t.Fatal(err)
		}
	}
	rAny, err := in.Reader()
	if err != nil {
		t.Fatal(err)
	}
	return rAny.(runtime.GroupedKVReader)
}

// TestFlateCodecRoundTrip checks that flate-compressed partitions decode
// byte-identically through Register→Fetch→merge and that the wire/raw
// counters show the compression.
func TestFlateCodecRoundTrip(t *testing.T) {
	const srcTasks, parts, records = 3, 2, 2000
	run := func(codec string) (map[string]string, *metrics.Counters) {
		svc := testServices(t)
		ctr := metrics.NewCounters()
		svc.Counters = ctr
		var all []event.Event
		for s := 0; s < srcTasks; s++ {
			evs, _ := produceCfg(t, svc, &OrderedPartitionedConfig{Codec: codec}, s, parts, writeWordRecords(records))
			all = append(all, evs...)
		}
		return consumeGrouped(t, svc, all, 0, srcTasks), ctr
	}
	plain, plainCtr := run("")
	flated, flateCtr := run("flate")
	if len(plain) == 0 {
		t.Fatal("no groups read")
	}
	for k, v := range plain {
		if flated[k] != v {
			t.Fatalf("group %q differs under flate: %q vs %q", k, flated[k], v)
		}
	}
	if len(flated) != len(plain) {
		t.Fatalf("group count differs: %d vs %d", len(flated), len(plain))
	}
	wire, raw := flateCtr.Get("SHUFFLE_BYTES_WIRE"), flateCtr.Get("SHUFFLE_BYTES_RAW")
	if wire <= 0 || raw <= 0 || wire >= raw {
		t.Fatalf("flate wire/raw = %d/%d, want 0 < wire < raw", wire, raw)
	}
	if w, r := plainCtr.Get("SHUFFLE_BYTES_WIRE"), plainCtr.Get("SHUFFLE_BYTES_RAW"); w != r {
		t.Fatalf("codec none: wire %d != raw %d", w, r)
	}
}

// TestCodecKnobResolution checks the edge payload → session (Services) →
// library default chain for the codec and the per-edge sort budget.
func TestCodecKnobResolution(t *testing.T) {
	svc := testServices(t)
	mk := func(svc runtime.Services, payload []byte) *OrderedPartitionedKVOutput {
		o := &OrderedPartitionedKVOutput{}
		meta := runtime.Meta{DAG: "d", Vertex: "map", Task: 0, Attempt: 0}
		if err := o.Initialize(ctxFor(svc, meta, "red", payload, 2)); err != nil {
			t.Fatal(err)
		}
		return o
	}
	if o := mk(svc, nil); o.codec != nil || o.limit != 0 {
		t.Fatalf("defaults: codec=%v limit=%d", o.codec, o.limit)
	}
	svc2 := svc
	svc2.Codec = "flate"
	if o := mk(svc2, nil); o.codec == nil || o.codec.Name() != "flate" || o.limit != 0 {
		t.Fatalf("services knobs not honoured: codec=%v limit=%d", o.codec, o.limit)
	}
	// Payload overrides Services; a negative budget is unbounded.
	payload := plugin.MustEncode(OrderedPartitionedConfig{Codec: "none", SortBytes: -1})
	if o := mk(svc2, payload); o.codec != nil || o.limit != 0 {
		t.Fatalf("payload override lost: codec=%v limit=%d", o.codec, o.limit)
	}
	if o := mk(svc2, plugin.MustEncode(OrderedPartitionedConfig{SortBytes: 4096})); o.limit != 4096 {
		t.Fatalf("per-edge sort budget lost: limit=%d", o.limit)
	}
	if err := func() error {
		o := &OrderedPartitionedKVOutput{}
		meta := runtime.Meta{DAG: "d", Vertex: "map", Task: 0, Attempt: 0}
		return o.Initialize(ctxFor(svc, meta, "red", plugin.MustEncode(OrderedPartitionedConfig{Codec: "bogus"}), 2))
	}(); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

// TestWideConsumerMergesOnce runs 120 producers into one consumer — more
// runs than Tez would merge in one pass from disk — and requires the
// oracle's groups, every value in (key, value) order, from the single lazy
// merge of the reader: no intermediate merge runs on the reduce side, so
// the consumer journals no span of its own beyond its fetches.
func TestWideConsumerMergesOnce(t *testing.T) {
	const srcTasks, keys = 120, 50
	svc := testServices(t)
	tl := timeline.New()
	svc.Timeline = tl
	var all []event.Event
	want := map[string][]string{}
	for s := 0; s < srcTasks; s++ {
		evs, _ := produceCfg(t, svc, nil, s, 1, func(w runtime.KVWriter) {
			for i := 0; i < keys; i++ {
				k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%03d-%d", s, i)
				if err := w.Write([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				want[k] = append(want[k], v)
			}
		})
		all = append(all, evs...)
	}
	got := consumeGrouped(t, svc, all, 0, srcTasks)
	if len(got) != keys {
		t.Fatalf("%d groups, want %d", len(got), keys)
	}
	for k, vs := range want {
		sort.Strings(vs)
		if g := got[k]; g != strings.Join(vs, ",")+"," {
			t.Fatalf("group %q = %q, want %d values in order", k, g, len(vs))
		}
	}
	for _, e := range tl.Events() {
		if e.Vertex == "red" && e.Type != timeline.ShuffleFetch {
			t.Fatalf("the consumer journalled a %s span: %+v", e.Type, e)
		}
	}
}

// TestRetractedStoredRunReplaced: an InputFailed for a run the consumer
// has already stored drops that run, the re-executed attempt's run is
// fetched in its place, and the reader sees the replacement's record once
// and the retracted one's not at all — the read does not fail.
func TestRetractedStoredRunReplaced(t *testing.T) {
	svc := testServices(t)
	svc.Counters = metrics.NewCounters()
	id := func(task, attempt int) shuffle.OutputID {
		return shuffle.OutputID{DAG: "d", Vertex: "map", Task: task, Attempt: attempt}
	}
	stored := registerRun(t, svc, "n1", id(0, 0), "t0-a0")
	registerRun(t, svc, "n2", id(0, 1), "t0-a1")
	registerRun(t, svc, "n0", id(1, 0), "t1-a0")
	in := &OrderedGroupedKVInput{}
	if err := in.Initialize(ctxFor(svc, runtime.Meta{DAG: "d", Vertex: "red"}, "map", nil, 2)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	// Source 0's first attempt has been fetched and stored.
	in.fs.mu.Lock()
	in.fs.slots[0] = inputSlot{dm: dmFor(0, 0, 0, id(0, 0)), live: true, runs: [][]byte{stored}, stored: true}
	in.fs.stored = 1
	in.fs.mu.Unlock()
	for _, ev := range []event.Event{
		event.InputFailed{TargetInputIndex: 0, SrcTask: 0, SrcAttempt: 0},
		dmFor(0, 0, 1, id(0, 1)),
		dmFor(1, 1, 0, id(1, 0)),
	} {
		if err := in.HandleEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := in.fs.storedRuns(0); ok {
		t.Fatal("the retracted run is still stored")
	}
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	rAny, err := in.Reader()
	if err != nil {
		t.Fatalf("read failed: %v", err)
	}
	var got []string
	for g := rAny.(runtime.GroupedKVReader); g.Next(); {
		got = append(got, fmt.Sprintf("%s:%d", g.Key(), len(g.Values())))
	}
	if want := []string{"t0-a1:1", "t1-a0:1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("read %v, want %v", got, want)
	}
	if n := svc.Counters.Get("SHUFFLE_FETCHES"); n != 2 {
		t.Fatalf("%d fetches, want the replacement and source 1 once each", n)
	}
}

// buildGroupedRuns encodes srcRuns sorted runs of the same key space, as
// the reduce side would fetch them.
func buildGroupedRuns(runs, keys, valsPerKey int) [][]byte {
	out := make([][]byte, runs)
	for r := 0; r < runs; r++ {
		var buf []byte
		for k := 0; k < keys; k++ {
			key := []byte(fmt.Sprintf("key-%05d", k))
			for v := 0; v < valsPerKey; v++ {
				buf = AppendRecord(buf, key, []byte(fmt.Sprintf("val-%d-%d", r, v)))
			}
		}
		out[r] = buf
	}
	return out
}

// TestGroupedReadAllocs is the regression for the per-value copy bug:
// reading a merged, grouped stream must cost at most one allocation per
// record (amortised; the heap fix path and container growth dominate).
func TestGroupedReadAllocs(t *testing.T) {
	runs := buildGroupedRuns(4, 200, 3)
	var total int
	allocs := testing.AllocsPerRun(5, func() {
		g := newGroupedReader(newMergeReader(runs))
		n := 0
		for g.Next() {
			n += len(g.Values())
		}
		if g.Err() != nil {
			t.Fatal(g.Err())
		}
		total = n
	})
	if total != 4*200*3 {
		t.Fatalf("read %d records", total)
	}
	if perRecord := allocs / float64(total); perRecord > 1 {
		t.Fatalf("allocs/record = %.2f (total %.0f), want <= 1", perRecord, allocs)
	}
}

// BenchmarkGroupedRead measures the zero-copy grouped read path.
func BenchmarkGroupedRead(b *testing.B) {
	const runs, keys, valsPerKey = 8, 2000, 4
	data := buildGroupedRuns(runs, keys, valsPerKey)
	records := runs * keys * valsPerKey
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := newGroupedReader(newMergeReader(data))
		n := 0
		for g.Next() {
			n += len(g.Values())
		}
		if n != records {
			b.Fatalf("read %d of %d records", n, records)
		}
	}
}

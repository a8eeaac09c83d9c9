package library

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"tez/internal/dfs"
	"tez/internal/event"
	"tez/internal/plugin"
	"tez/internal/runtime"
	"tez/internal/shuffle"
)

func testServices(t *testing.T) runtime.Services {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 256, Replication: 2})
	sh := shuffle.New(shuffle.Config{})
	for i := 0; i < 3; i++ {
		n := fmt.Sprintf("n%d", i)
		fs.AddNode(n, "r0")
		sh.AddNode(n, "r0")
	}
	return runtime.Services{FS: fs, Shuffle: sh, Node: "n0", Registry: runtime.NewObjectRegistry()}
}

func ctxFor(svc runtime.Services, meta runtime.Meta, name string, payload []byte, phys int) *runtime.Context {
	return &runtime.Context{
		Meta:          meta,
		Services:      svc,
		Payload:       payload,
		Name:          name,
		PhysicalCount: phys,
		Emit:          func(event.Event) {},
		Stop:          make(chan struct{}),
	}
}

// runProducer runs an OrderedPartitionedKVOutput for one source task and
// returns its emitted events.
func runProducer(t *testing.T, svc runtime.Services, task, parts int, pairs map[string]string) []event.Event {
	t.Helper()
	out := &OrderedPartitionedKVOutput{}
	meta := runtime.Meta{DAG: "d", Vertex: "map", Task: task, Attempt: 0}
	if err := out.Initialize(ctxFor(svc, meta, "red", nil, parts)); err != nil {
		t.Fatal(err)
	}
	wAny, err := out.Writer()
	if err != nil {
		t.Fatal(err)
	}
	w := wAny.(runtime.KVWriter)
	for k, v := range pairs {
		if err := w.Write([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	events, err := out.Close()
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestOrderedShuffleEndToEnd(t *testing.T) {
	svc := testServices(t)
	const srcTasks, parts = 3, 2
	var all []event.Event
	for s := 0; s < srcTasks; s++ {
		all = append(all, runProducer(t, svc, s, parts, map[string]string{
			fmt.Sprintf("key-%d", s): "x",
			"shared":                 fmt.Sprintf("s%d", s),
		})...)
	}
	var dms []event.DataMovement
	stats := 0
	for _, ev := range all {
		switch e := ev.(type) {
		case event.DataMovement:
			dms = append(dms, e)
		case event.VertexManagerEvent:
			stats++
			var vs VMStats
			if err := plugin.Decode(e.Payload, &vs); err != nil {
				t.Fatal(err)
			}
			if len(vs.PartitionSizes) != parts {
				t.Fatalf("stats partitions = %d", len(vs.PartitionSizes))
			}
		}
	}
	if len(dms) != srcTasks*parts || stats != srcTasks {
		t.Fatalf("events: %d movements, %d stats", len(dms), stats)
	}

	// Consumer task reads partition p from every source: simulate routing
	// for dest task 0 (partition 0), input index = srcTask.
	in := &OrderedGroupedKVInput{}
	meta := runtime.Meta{DAG: "d", Vertex: "red", Task: 0, Attempt: 0}
	ctx := ctxFor(svc, meta, "map", nil, srcTasks)
	if err := in.Initialize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	for _, dm := range dms {
		if dm.SrcOutputIndex != 0 {
			continue
		}
		dm.TargetVertex = "red"
		dm.TargetTask = 0
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
	g := rAny.(runtime.GroupedKVReader)
	groups := map[string]int{}
	var prev string
	for g.Next() {
		k := string(g.Key())
		if prev != "" && k < prev {
			t.Fatalf("keys out of order: %q after %q", k, prev)
		}
		prev = k
		groups[k] = len(g.Values())
	}
	if g.Err() != nil {
		t.Fatal(g.Err())
	}
	// "shared" hashes to some partition; whichever keys landed on
	// partition 0 must have all their values grouped.
	hp := HashPartitioner{}
	want := map[string]int{}
	for s := 0; s < srcTasks; s++ {
		for _, k := range []string{fmt.Sprintf("key-%d", s), "shared"} {
			if hp.Partition([]byte(k), parts) == 0 {
				want[k]++
			}
		}
	}
	if len(groups) != len(want) {
		t.Fatalf("groups = %v, want keys %v", groups, want)
	}
	for k, n := range want {
		if groups[k] != n {
			t.Fatalf("group %q has %d values, want %d", k, groups[k], n)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupedInputReportsDataLoss(t *testing.T) {
	svc := testServices(t)
	in := &OrderedGroupedKVInput{}
	meta := runtime.Meta{DAG: "d", Vertex: "red", Task: 0}
	ctx := ctxFor(svc, meta, "map", nil, 1)
	if err := in.Initialize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	// DataMovement referencing an output that was never registered.
	dm := event.DataMovement{
		SrcVertex: "map", SrcTask: 2, SrcAttempt: 1,
		TargetInput: "map", TargetInputIndex: 0,
		Payload: plugin.MustEncode(DMInfo{
			ID: shuffle.OutputID{DAG: "d", Vertex: "map", Task: 2, Attempt: 1},
		}),
	}
	if err := in.HandleEvent(dm); err != nil {
		t.Fatal(err)
	}
	_, err := in.Reader()
	ire, ok := runtime.AsInputReadError(err)
	if !ok {
		t.Fatalf("err = %v, want InputReadError", err)
	}
	if ire.SrcVertex != "map" || ire.SrcTask != 2 || ire.SrcAttempt != 1 {
		t.Fatalf("producer info = %+v", ire)
	}
	if !errors.Is(err, shuffle.ErrDataLost) {
		t.Fatalf("cause = %v", err)
	}
	_ = in.Close()
}

func TestInputFailedRetractionThenReplacement(t *testing.T) {
	svc := testServices(t)
	// Register attempt 0 and attempt 1 outputs with different data.
	id0 := shuffle.OutputID{DAG: "d", Vertex: "map", Task: 0, Attempt: 0}
	id1 := shuffle.OutputID{DAG: "d", Vertex: "map", Task: 0, Attempt: 1}
	_ = svc.Shuffle.Register("n1", id0, [][]byte{encodePairs([]pair{{[]byte("old"), []byte("0")}})})
	_ = svc.Shuffle.Register("n2", id1, [][]byte{encodePairs([]pair{{[]byte("new"), []byte("1")}})})

	in := &UnorderedKVInput{}
	ctx := ctxFor(svc, runtime.Meta{DAG: "d", Vertex: "red"}, "map", nil, 1)
	if err := in.Initialize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	mk := func(id shuffle.OutputID, attempt int) event.DataMovement {
		return event.DataMovement{
			SrcVertex: "map", SrcTask: 0, SrcAttempt: attempt,
			TargetInput: "map", TargetInputIndex: 0,
			Payload: plugin.MustEncode(DMInfo{ID: id}),
		}
	}
	if err := in.HandleEvent(mk(id0, 0)); err != nil {
		t.Fatal(err)
	}
	// Wait for the first fetch to land, then retract and replace.
	r1, err := in.Reader()
	if err != nil {
		t.Fatal(err)
	}
	kv := r1.(runtime.KVReader)
	if !kv.Next() || string(kv.Key()) != "old" {
		t.Fatal("first read should see attempt 0 data")
	}
	if err := in.HandleEvent(event.InputFailed{TargetInputIndex: 0, SrcTask: 0, SrcAttempt: 0}); err != nil {
		t.Fatal(err)
	}
	if err := in.HandleEvent(mk(id1, 1)); err != nil {
		t.Fatal(err)
	}
	r2, err := in.Reader()
	if err != nil {
		t.Fatal(err)
	}
	kv2 := r2.(runtime.KVReader)
	if !kv2.Next() || string(kv2.Key()) != "new" {
		t.Fatalf("replacement not fetched; key=%q", kv2.Key())
	}
	_ = in.Close()
}

func TestRecordFileWriteSplitRead(t *testing.T) {
	svc := testServices(t)
	const blockSize = 256
	w, err := CreateRecordFile(svc.FS, "/data/t", "n0")
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := w.Write([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != n {
		t.Fatalf("Records = %d", w.Records())
	}
	splits, err := svc.FS.Splits("/data/t", blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) < 2 {
		t.Fatalf("expected multiple splits, got %d", len(splits))
	}
	// Read via splitRecordReader across all splits: every record, in order.
	r := &splitRecordReader{fs: svc.FS, node: "n0", splits: splits}
	i := 0
	for r.Next() {
		if string(r.Key()) != fmt.Sprintf("k%04d", i) {
			t.Fatalf("record %d key %q", i, r.Key())
		}
		i++
	}
	if r.Err() != nil || i != n {
		t.Fatalf("read %d records, err=%v", i, r.Err())
	}
}

func TestRecordFileRejectsHugeRecord(t *testing.T) {
	svc := testServices(t)
	w, err := CreateRecordFile(svc.FS, "/data/big", "n0")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(make([]byte, 10000), nil); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestDFSSinkAndCommitter(t *testing.T) {
	svc := testServices(t)
	sinkCfg := plugin.MustEncode(DFSSinkConfig{Path: "/out"})
	writeAttempt := func(task, attempt int, val string) {
		out := &DFSSinkOutput{}
		meta := runtime.Meta{DAG: "d", Vertex: "v", Task: task, Attempt: attempt}
		if err := out.Initialize(ctxFor(svc, meta, "sink", sinkCfg, 0)); err != nil {
			t.Fatal(err)
		}
		wAny, _ := out.Writer()
		_ = wAny.(runtime.KVWriter).Write([]byte("k"), []byte(val))
		if _, err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeAttempt(0, 0, "t0a0")
	writeAttempt(1, 0, "t1a0-failed")
	writeAttempt(1, 1, "t1a1")

	c := DFSCommitter{}
	err := c.Commit(&runtime.CommitContext{
		DAG: "d", Vertex: "v", Sink: "sink",
		Payload: sinkCfg, FS: svc.FS,
		Parallelism:       2,
		SuccessfulAttempt: map[int]int{0: 0, 1: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	files := svc.FS.List("/out/part-")
	if len(files) != 2 {
		t.Fatalf("committed files = %v", files)
	}
	data, err := svc.FS.ReadFile(FinalPath("/out", 1), "n0")
	if err != nil {
		t.Fatal(err)
	}
	r := NewBufferReader(data)
	if !r.Next() || string(r.Value()) != "t1a1" {
		t.Fatalf("committed wrong attempt: %q", r.Value())
	}
	if got := svc.FS.List("/out/.tmp/"); len(got) != 0 {
		t.Fatalf("temp files left: %v", got)
	}
}

func TestCommitterMissingAttemptFails(t *testing.T) {
	svc := testServices(t)
	c := DFSCommitter{}
	err := c.Commit(&runtime.CommitContext{
		Payload: plugin.MustEncode(DFSSinkConfig{Path: "/out"}), FS: svc.FS,
		Parallelism:       1,
		SuccessfulAttempt: map[int]int{},
	})
	if err == nil {
		t.Fatal("commit with missing attempt succeeded")
	}
}

func TestSplitInitializer(t *testing.T) {
	svc := testServices(t)
	write := func(path string, records int, val []byte) int64 {
		t.Helper()
		w, err := CreateRecordFile(svc.FS, path, "n1")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			if err := w.Write([]byte(fmt.Sprintf("k%d", i)), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		sz, _ := svc.FS.Size(path)
		return sz
	}
	// run returns each task's splits; the per-task payloads, hints and
	// parallelism must agree in number and the splits must tile the input.
	run := func(cfg SplitSourceConfig, wantBytes int64) [][]dfs.Split {
		t.Helper()
		res, err := SplitInitializer{}.Run(&runtime.InitializerContext{
			DAG: "d", Vertex: "v", Source: "src", Payload: plugin.MustEncode(cfg), FS: svc.FS,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.PerTaskPayload) != res.Parallelism || len(res.LocationHints) != res.Parallelism {
			t.Fatal("per-task payloads/hints size mismatch")
		}
		var tasks [][]dfs.Split
		var total int64
		for _, p := range res.PerTaskPayload {
			var asn SplitAssignment
			if err := plugin.Decode(p, &asn); err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, asn.Splits)
			for _, s := range asn.Splits {
				total += s.Length
			}
		}
		if total != wantBytes {
			t.Fatalf("splits cover %d of %d bytes", total, wantBytes)
		}
		return tasks
	}
	small := write("/in/a", 300, []byte("v"))
	big := write("/in/big", 3000, bytes.Repeat([]byte("v"), 200)) // one record per 256-byte block

	// The caller fixed the unit of work: one task per split, at any size.
	blocks := int((small + 255) / 256)
	for _, tc := range []struct {
		size  int64
		tasks int
	}{{256, blocks}, {512, (blocks + 1) / 2}, {1 << 20, 1}} {
		tasks := run(SplitSourceConfig{Paths: []string{"/in/a"}, DesiredSplitSize: tc.size}, small)
		if len(tasks) != tc.tasks {
			t.Errorf("DesiredSplitSize %d: %d tasks, want %d", tc.size, len(tasks), tc.tasks)
		}
		for i, task := range tasks {
			if len(task) != 1 {
				t.Errorf("DesiredSplitSize %d: task %d reads %d splits", tc.size, i, len(task))
			}
		}
	}
	one := run(SplitSourceConfig{Paths: []string{"/in/big"}, DesiredSplitSize: 256}, big)
	if len(one) != 3000 {
		t.Errorf("explicit block-size splits of the large file: %d tasks, want 3000", len(one))
	}

	// The library sizes the tasks: block-size splits, grouped to
	// DefaultGroupBytes — a small file is one task, the large one
	// total/DefaultGroupBytes+1.
	if tasks := run(SplitSourceConfig{Paths: []string{"/in/a"}}, small); len(tasks) != 1 || len(tasks[0]) != blocks {
		t.Errorf("small file, library-sized: %d tasks, first reads %d splits; want 1 task of %d", len(tasks), len(tasks[0]), blocks)
	}
	want := int(big/DefaultGroupBytes) + 1
	if want < 2 {
		t.Fatalf("the large file (%d bytes) does not exercise grouping", big)
	}
	tasks := run(SplitSourceConfig{Paths: []string{"/in/big", "/in/a"}}, big+small)
	if len(tasks) < want || len(tasks) > want+1 {
		t.Errorf("library-sized: %d tasks, want %d or %d", len(tasks), want, want+1)
	}
	for i, task := range tasks {
		if len(task) < 2 {
			t.Errorf("library-sized task %d reads %d splits of 256 bytes", i, len(task))
		}
	}

	// A source without data is still one (empty) task.
	if tasks := run(SplitSourceConfig{}, 0); len(tasks) != 1 || len(tasks[0]) != 0 {
		t.Errorf("empty source: %v", tasks)
	}
}

// A split assignment that does not decode must fail the attempt, not hang
// it: the task runner drops HandleEvent's error by design, so the input
// keeps it and Reader returns it. (Reader used to wait for an assignment
// that would never come, until the attempt was killed.)
func TestDFSSourceInputCorruptAssignment(t *testing.T) {
	svc := testServices(t)
	good := plugin.MustEncode(SplitAssignment{Splits: []dfs.Split{{Path: "/in/a", Length: 10}}})
	gobBytes := plugin.MustEncode(struct{ Splits []dfs.Split }{[]dfs.Split{{Path: "/in/a", Length: 10}}})
	for name, payload := range map[string][]byte{"truncated": good[:len(good)-2], "gob": gobBytes, "empty": nil} {
		in := &DFSSourceInput{}
		ctx := ctxFor(svc, runtime.Meta{DAG: "d", Vertex: "map"}, "lines", nil, 1)
		if err := in.Initialize(ctx); err != nil {
			t.Fatal(err)
		}
		if err := in.Start(); err != nil {
			t.Fatal(err)
		}
		read := make(chan error, 1)
		go func() { _, err := in.Reader(); read <- err }() // parked on the assignment
		if err := in.HandleEvent(event.RootInputDataInformation{Payload: payload}); err == nil {
			t.Fatalf("%s payload: HandleEvent accepted it", name)
		}
		select {
		case err := <-read:
			if err == nil || !strings.Contains(err.Error(), "split assignment") || !strings.Contains(err.Error(), "lines") {
				t.Fatalf("%s payload: Reader returned %v, want the decode error naming the input", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s payload: Reader still waiting for an assignment that failed to decode", name)
		}
	}
}

func TestRangePartitionedOutputConfig(t *testing.T) {
	svc := testServices(t)
	cfg := plugin.MustEncode(OrderedPartitionedConfig{
		Partitioner: PartitionerSpec{Kind: "range", Points: [][]byte{[]byte("m")}},
	})
	out := &OrderedPartitionedKVOutput{}
	meta := runtime.Meta{DAG: "d", Vertex: "map", Task: 0}
	if err := out.Initialize(ctxFor(svc, meta, "red", cfg, 2)); err != nil {
		t.Fatal(err)
	}
	wAny, _ := out.Writer()
	w := wAny.(runtime.KVWriter)
	_ = w.Write([]byte("apple"), []byte("1"))
	_ = w.Write([]byte("zebra"), []byte("2"))
	if _, err := out.Close(); err != nil {
		t.Fatal(err)
	}
	id := shuffle.OutputID{DAG: "d", Vertex: "map", Name: "red", Task: 0}
	p0, _ := svc.Shuffle.Fetch(id, 0, "n0")
	p1, _ := svc.Shuffle.Fetch(id, 1, "n0")
	r0, r1 := NewBufferReader(p0), NewBufferReader(p1)
	if !r0.Next() || string(r0.Key()) != "apple" {
		t.Fatal("apple not in range partition 0")
	}
	if !r1.Next() || string(r1.Key()) != "zebra" {
		t.Fatal("zebra not in range partition 1")
	}
}

// partitionerFunc adapts a function to Partitioner.
type partitionerFunc func(key []byte, n int) int

func (f partitionerFunc) Partition(key []byte, n int) int { return f(key, n) }

// TestPartitionedOutputsRejectOutOfRangePartition: a partitioner that
// answers outside [0, n) is a bug in application code, and both
// partitioned outputs must report it as a write error, not index with it.
func TestPartitionedOutputsRejectOutOfRangePartition(t *testing.T) {
	const parts = 3
	answer := 0
	p := partitionerFunc(func([]byte, int) int { return answer })
	ordered, unordered := &OrderedPartitionedKVOutput{}, &UnorderedPartitionedKVOutput{}
	for name, out := range map[string]runtime.Output{"ordered": ordered, "unordered": unordered} {
		meta := runtime.Meta{DAG: "d", Vertex: "map"}
		if err := out.Initialize(ctxFor(testServices(t), meta, "red", nil, parts)); err != nil {
			t.Fatal(err)
		}
		ordered.partitioner, unordered.partitioner = p, p
		wAny, err := out.Writer()
		if err != nil {
			t.Fatal(err)
		}
		for answer = -1; answer <= parts+1; answer++ {
			err := wAny.(runtime.KVWriter).Write([]byte("k"), []byte("v"))
			if valid := answer >= 0 && answer < parts; valid != (err == nil) {
				t.Errorf("%s output, partition %d of %d: err = %v", name, answer, parts, err)
			}
		}
		if _, err := out.Close(); err != nil {
			t.Errorf("%s output: close after refused writes: %v", name, err)
		}
	}
	// The one-partition form never asks: whatever a partitioner would have
	// said, every record lands in the single partition.
	single := &UnorderedPartitionedKVOutput{single: true, partitioner: p}
	if err := single.Initialize(ctxFor(testServices(t), runtime.Meta{DAG: "d", Vertex: "map"}, "red", nil, parts)); err != nil {
		t.Fatal(err)
	}
	wAny, _ := single.Writer()
	for answer = -1; answer <= parts+1; answer++ {
		if err := wAny.(runtime.KVWriter).Write([]byte("k"), []byte("v")); err != nil {
			t.Errorf("one-partition output consulted the partitioner (answer %d): %v", answer, err)
		}
	}
	if events, err := single.Close(); err != nil || len(events) != 1 {
		t.Errorf("one-partition output announced %d events, err %v", len(events), err)
	}
}

// TestOutputsAnnounceExactBytes pins what each registered shuffle output
// announces, byte for byte: one DataMovement per partition whose payload is
// the DMInfo written out here field by field (the unordered outputs carry
// no RawSize and no Codec), then one VMStats — raw sizes from the ordered
// output, registered sizes from the unordered partitioned one, none from
// the one-partition form broadcast and one-to-one edges use.
func TestOutputsAnnounceExactBytes(t *testing.T) {
	const parts = 2
	recs := [][2]string{{"a", "1"}, {"b", "22"}, {"c", "333"}, {"d", ""}}
	for _, tc := range []struct {
		name    string
		ordered bool
		parts   int
		stats   bool
	}{
		{OrderedPartitionedOutputName, true, parts, true},
		{UnorderedPartitionedOutputName, false, parts, true},
		{UnorderedOutputName, false, 1, false},
	} {
		svc := testServices(t)
		out, err := plugin.New[runtime.Output](plugin.KindOutput, plugin.Descriptor{Name: tc.name})
		if err != nil {
			t.Fatal(err)
		}
		meta := runtime.Meta{DAG: "d", Vertex: "map", Task: 3, Attempt: 1}
		if err := out.Initialize(ctxFor(svc, meta, "red", nil, parts)); err != nil {
			t.Fatal(err)
		}
		wAny, _ := out.Writer()
		want := make([][]byte, tc.parts) // records are written in key order, so sorted already
		for _, r := range recs {
			k, v := []byte(r[0]), []byte(r[1])
			if err := wAny.(runtime.KVWriter).Write(k, v); err != nil {
				t.Fatal(err)
			}
			p := HashPartitioner{}.Partition(k, tc.parts)
			want[p] = AppendRecord(want[p], k, v)
		}
		events, err := out.Close()
		if err != nil {
			t.Fatal(err)
		}
		id := shuffle.OutputID{DAG: "d", Vertex: "map", Name: "red", Task: 3, Attempt: 1}
		var wantEvents []event.Event
		sizes := make([]int64, tc.parts)
		for i, data := range want {
			sizes[i] = int64(len(data))
			info := DMInfo{ID: id, Partition: i}
			if tc.ordered {
				info.RawSize = sizes[i]
			}
			wantEvents = append(wantEvents, event.DataMovement{
				SrcVertex: "map", SrcTask: 3, SrcAttempt: 1, SrcOutputIndex: i,
				TargetVertex: "red", Payload: plugin.MustEncode(info),
			})
			if got, err := svc.Shuffle.Fetch(id, i, "n0"); err != nil || !bytes.Equal(got, data) {
				t.Errorf("%s: partition %d registered as %q (%v), want %q", tc.name, i, got, err, data)
			}
		}
		if tc.stats {
			wantEvents = append(wantEvents, event.VertexManagerEvent{
				TargetVertex: "red", SrcVertex: "map", SrcTask: 3,
				Payload: plugin.MustEncode(VMStats{PartitionSizes: sizes}),
			})
		}
		if !reflect.DeepEqual(events, wantEvents) {
			t.Errorf("%s announced\n %+v\nwant\n %+v", tc.name, events, wantEvents)
		}
	}
}

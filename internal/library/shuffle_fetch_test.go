package library

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"tez/internal/chaos"
	"tez/internal/event"
	"tez/internal/metrics"
	"tez/internal/plugin"
	"tez/internal/runtime"
	"tez/internal/shuffle"
)

// TestShuffleCountersExact pins the consumer's byte account against
// multi-spill producers: SHUFFLE_BYTES_WIRE/_RAW and SHUFFLE_INCREMENTS are
// charged once per stored run, so a transfer that came back after its
// attempt was retracted, a stale re-announcement and duplicate
// announcements add a fetch at most, never bytes or runs.
func TestShuffleCountersExact(t *testing.T) {
	const srcTasks, parts = 3, 2
	svc := testServices(t)
	svc.Counters = metrics.NewCounters()
	var dms []event.DataMovement // every source's partition 0, routed
	var wantWire, wantRaw int64
	for s := 0; s < srcTasks; s++ {
		cfg := &OrderedPartitionedConfig{SortBytes: 4096, Codec: "flate"}
		evs, _ := produceCfg(t, svc, cfg, s, parts, writeWordRecords(2000))
		dm := evs[0].(event.DataMovement)
		dm.TargetInput, dm.TargetInputIndex = "map", s
		dms = append(dms, dm)
		var info DMInfo
		if err := plugin.Decode(dm.Payload, &info); err != nil {
			t.Fatal(err)
		}
		wire, err := svc.Shuffle.Fetch(info.ID, info.Partition, "n0")
		if err != nil {
			t.Fatal(err)
		}
		wantWire, wantRaw = wantWire+int64(len(wire)), wantRaw+info.RawSize
	}
	if spills := svc.Counters.Get("SHUFFLE_SPILLS"); spills <= srcTasks || wantWire >= wantRaw {
		t.Fatalf("%d spills, %d wire vs %d raw bytes: want several spills per producer and a shrunk wire", spills, wantWire, wantRaw)
	}
	// Source 0 is re-executed while its first transfer is in the air; the
	// rerun announces the same bytes as attempt 1.
	retracted, rerun := dms[0], dms[0]
	rerun.SrcAttempt = 1

	svc.Counters = metrics.NewCounters()
	fs := newFetchSet(ctxFor(svc, runtime.Meta{DAG: "d", Vertex: "red"}, "map", nil, srcTasks))
	fetched, release := make(chan struct{}), make(chan struct{})
	fs.testHookFetched = func(dm event.DataMovement) {
		if dm.SrcTask == 0 && dm.SrcAttempt == 0 {
			fetched <- struct{}{}
			<-release
		}
	}
	deliver := func(evs ...event.Event) {
		for _, ev := range evs {
			if err := fs.handleEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	deliver(retracted)
	fs.start()
	<-fetched // attempt 0 transferred, not yet stored
	deliver(event.InputFailed{TargetInputIndex: 0, SrcTask: 0, SrcAttempt: 0}, rerun,
		retracted,                      // stale re-announcement of the superseded attempt
		dms[1], dms[1], dms[2], dms[2]) // duplicates
	close(release)
	runs, err := fs.wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.close(); err != nil {
		t.Fatal(err)
	}
	var stored int64
	for _, r := range runs {
		stored += int64(len(r))
	}
	if stored != wantRaw {
		t.Errorf("runs handed out hold %d bytes, announced %d", stored, wantRaw)
	}
	for name, want := range map[string]int64{
		"SHUFFLE_BYTES_WIRE": wantWire,
		"SHUFFLE_BYTES_RAW":  wantRaw,
		"SHUFFLE_INCREMENTS": srcTasks,
		"SHUFFLE_FETCHES":    srcTasks + 1, // the retracted transfer happened, and only that
	} {
		if got := svc.Counters.Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestFetchRetractionStress re-executes producers whose runs a consumer
// has already stored, on a consumer of 128 physical inputs — wider than
// any merge would be bounded to — under -race with 30% injected transient
// fetch errors. The events arrive in mailbox order: every first-attempt
// movement but the last source's, which holds the read open; then, once
// the consumer has stored all of them, a retraction and a replacement for
// each of 16 sources spread over the index range; then the last movement.
// A retraction only drops a stored run, so on every seed the ordered
// input's Reader must return exactly the surviving attempts' records, with
// no InputReadError, and each stored run must be counted once.
func TestFetchRetractionStress(t *testing.T) {
	const phys = 128
	rerun := func(i int) bool { return i%8 == 3 }
	id := func(task, attempt int) shuffle.OutputID {
		return shuffle.OutputID{DAG: "d", Vertex: "map", Task: task, Attempt: attempt}
	}
	var want []string
	reruns := 0
	for i := 0; i < phys; i++ {
		attempt := 0
		if rerun(i) {
			attempt, reruns = 1, reruns+1
		}
		want = append(want, fmt.Sprintf("t%d-a%d", i, attempt))
	}
	sort.Strings(want)
	for seed := int64(1); seed <= 8; seed++ {
		svc := testServices(t)
		svc.Shuffle = shuffle.New(shuffle.Config{Chaos: chaos.New(seed, chaos.Spec{TransientFetchProb: 0.3})})
		for i := 0; i < 3; i++ {
			svc.Shuffle.AddNode(fmt.Sprintf("n%d", i), "r0")
		}
		svc.Counters = metrics.NewCounters()
		for i := 0; i < phys; i++ {
			registerRun(t, svc, fmt.Sprintf("n%d", i%3), id(i, 0), fmt.Sprintf("t%d-a0", i))
			if rerun(i) {
				registerRun(t, svc, fmt.Sprintf("n%d", (i+1)%3), id(i, 1), fmt.Sprintf("t%d-a1", i))
			}
		}
		in := &OrderedGroupedKVInput{}
		if err := in.Initialize(ctxFor(svc, runtime.Meta{DAG: "d", Vertex: "red"}, "map", nil, phys)); err != nil {
			t.Fatal(err)
		}
		in.fs.fetcher.MaxRetries = 100 // absorb the injected transient errors
		in.fs.fetcher.Backoff = time.Microsecond
		if err := in.Start(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < phys-1; i++ {
			_ = in.HandleEvent(dmFor(i, i, 0, id(i, 0)))
		}
		// Wait for the stores: every store signals changed, whose only
		// reader is this loop until Reader is called below.
		for {
			in.fs.mu.Lock()
			n, failed := in.fs.stored, in.fs.err != nil
			in.fs.mu.Unlock()
			if n == phys-1 || failed {
				break
			}
			<-in.fs.changed
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < phys; i++ {
				if rerun(i) {
					_ = in.HandleEvent(event.InputFailed{TargetInputIndex: i, SrcTask: i, SrcAttempt: 0})
					_ = in.HandleEvent(dmFor(i, i, 1, id(i, 1)))
				}
			}
			_ = in.HandleEvent(dmFor(phys-1, phys-1, 0, id(phys-1, 0)))
		}()
		rAny, err := in.Reader()
		wg.Wait()
		if err != nil {
			in.Close()
			t.Fatalf("seed %d: read failed: %v", seed, err)
		}
		var got []string
		for g := rAny.(runtime.GroupedKVReader); g.Next(); {
			got = append(got, string(g.Key()))
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: keys %v, want %v", seed, got, want)
		}
		if n := svc.Counters.Get("SHUFFLE_INCREMENTS"); n != int64(phys+reruns) {
			t.Fatalf("seed %d: %d runs stored, want %d", seed, n, phys+reruns)
		}
	}
}

// produceSpilled runs attempt attempt of source task 0 into one partition
// under a sort budget small enough to spill several times, writing n
// records whose values name the attempt, and returns its movement routed
// to physical input 0 and the DMInfo it announced.
func produceSpilled(t *testing.T, svc runtime.Services, attempt, n int) (event.DataMovement, DMInfo) {
	t.Helper()
	out := &OrderedPartitionedKVOutput{}
	meta := runtime.Meta{DAG: "d", Vertex: "map", Attempt: attempt}
	payload := plugin.MustEncode(OrderedPartitionedConfig{SortBytes: 1024})
	if err := out.Initialize(ctxFor(svc, meta, "red", payload, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := out.write([]byte(fmt.Sprintf("k%02d", i%20)), []byte(fmt.Sprintf("a%d-%03d", attempt, i))); err != nil {
			t.Fatal(err)
		}
	}
	events, err := out.Close()
	if err != nil {
		t.Fatal(err)
	}
	dm := events[0].(event.DataMovement)
	dm.TargetInput, dm.TargetInputIndex = "map", 0
	var info DMInfo
	if err := plugin.Decode(dm.Payload, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.RunSizes) < 3 {
		t.Fatalf("attempt %d announced %d runs, want several spills", attempt, len(info.RunSizes))
	}
	return dm, info
}

// TestRetractedStoredRunsReplaced: a spilled producer's partition is
// several runs in one fetch. Once the consumer has stored them, the
// producer is re-executed: the retraction drops every run of the first
// attempt, and the reader sees each record of the replacement's runs
// exactly once and none of the first attempt's.
func TestRetractedStoredRunsReplaced(t *testing.T) {
	const n = 300
	svc := testServices(t)
	svc.Counters = metrics.NewCounters()
	first, _ := produceSpilled(t, svc, 0, n)
	second, info := produceSpilled(t, svc, 1, n)
	in := &OrderedGroupedKVInput{}
	if err := in.Initialize(ctxFor(svc, runtime.Meta{DAG: "d", Vertex: "red"}, "map", nil, 1)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	if err := in.Start(); err != nil {
		t.Fatal(err)
	}
	if err := in.HandleEvent(first); err != nil {
		t.Fatal(err)
	}
	for {
		if runs, ok := in.fs.storedRuns(0); ok {
			if len(runs) < 3 {
				t.Fatalf("stored %d runs of a spilled producer", len(runs))
			}
			break
		}
		<-in.fs.changed
	}
	for _, ev := range []event.Event{event.InputFailed{TargetInputIndex: 0, SrcAttempt: 0}, second} {
		if err := in.HandleEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	rAny, err := in.Reader()
	if err != nil {
		t.Fatalf("read failed: %v", err)
	}
	runs, _ := in.fs.storedRuns(0)
	if len(runs) != len(info.RunSizes) {
		t.Fatalf("stored %d runs, the replacement announced %d", len(runs), len(info.RunSizes))
	}
	var got []string
	for g := rAny.(runtime.GroupedKVReader); g.Next(); {
		for _, v := range g.Values() {
			got = append(got, string(g.Key())+"="+string(v))
		}
	}
	var want []string
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprintf("k%02d=a1-%03d", i%20, i))
	}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read %d records, want the replacement's %d once each in order:\n%v", len(got), len(want), got)
	}
	if n := svc.Counters.Get("SHUFFLE_INCREMENTS"); n != 2 {
		t.Fatalf("%d fetches stored, want the first attempt's and the replacement's", n)
	}
}

// TestRunSizesMustTileBlock: run sizes that do not cut the fetched block
// exactly — short, long, or negative — fail the read as an
// InputReadError, so the producer is re-executed rather than a partial or
// misframed run merged.
func TestRunSizesMustTileBlock(t *testing.T) {
	svc := testServices(t)
	dm, info := produceSpilled(t, svc, 0, 300)
	var raw int64
	for _, n := range info.RunSizes {
		raw += n
	}
	if raw != info.RawSize {
		t.Fatalf("run sizes sum to %d, raw size %d", raw, info.RawSize)
	}
	last := len(info.RunSizes) - 1
	for name, sizes := range map[string][]int64{
		"short":    append(slices.Clone(info.RunSizes[:last]), info.RunSizes[last]-1),
		"long":     append(slices.Clone(info.RunSizes), 1),
		"negative": append([]int64{-1, info.RunSizes[0] + 1}, info.RunSizes[1:]...),
	} {
		bad := info
		bad.RunSizes = sizes
		dm := dm
		dm.Payload = plugin.MustEncode(bad)
		in := &OrderedGroupedKVInput{}
		if err := in.Initialize(ctxFor(svc, runtime.Meta{DAG: "d", Vertex: "red"}, "map", nil, 1)); err != nil {
			t.Fatal(err)
		}
		_ = in.Start()
		if err := in.HandleEvent(dm); err != nil {
			t.Fatal(err)
		}
		_, err := in.Reader()
		in.Close()
		var ire *runtime.InputReadError
		if !errors.As(err, &ire) {
			t.Errorf("%s run sizes: read returned %v, want an InputReadError", name, err)
		}
	}
}

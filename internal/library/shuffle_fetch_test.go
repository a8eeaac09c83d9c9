package library

import (
	"fmt"
	"reflect"
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
		wantWire, wantRaw = wantWire+info.Size, wantRaw+info.RawSize
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

// TestFetchRetractionStress races run arrival against InputFailed
// retraction and against the reader's intermediate merges, under -race
// with 30% injected transient fetch errors: 24 sources, 5 of them
// re-executed. A retraction that lands after its run was merged must fail
// the read with an InputReadError; otherwise the merged stream must be
// exactly the surviving attempts' records. Nothing in between.
func TestFetchRetractionStress(t *testing.T) {
	const phys, retracted, factor = 24, 5, 4
	id := func(task, attempt int) shuffle.OutputID {
		return shuffle.OutputID{DAG: "d", Vertex: "map", Task: task, Attempt: attempt}
	}
	var want []string
	for i := 0; i < phys; i++ {
		attempt := 0
		if i < retracted {
			attempt = 1
		}
		want = append(want, fmt.Sprintf("t%d-a%d", i, attempt))
	}
	sort.Strings(want)
	clean, lost := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		svc := testServices(t)
		svc.Shuffle = shuffle.New(shuffle.Config{Chaos: chaos.New(seed, chaos.Spec{TransientFetchProb: 0.3})})
		for i := 0; i < 3; i++ {
			svc.Shuffle.AddNode(fmt.Sprintf("n%d", i), "r0")
		}
		svc.Counters = metrics.NewCounters()
		fs := newFetchSet(ctxFor(svc, runtime.Meta{DAG: "d", Vertex: "red"}, "map", nil, phys))
		fs.fetcher.MaxRetries = 100 // absorb the injected transient errors
		fs.fetcher.Backoff = time.Microsecond
		for i := 0; i < phys+retracted; i++ {
			task, attempt := i%phys, i/phys
			registerRun(t, svc, fmt.Sprintf("n%d", i%3), id(task, attempt), fmt.Sprintf("t%d-a%d", task, attempt))
		}
		// One goroutine delivers the event stream in mailbox order — every
		// attempt-0 movement, then retraction plus replacement for each
		// re-executed source — while fetchers and the merging reader race it.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < phys; i++ {
				_ = fs.handleEvent(dmFor(i, i, 0, id(i, 0)))
			}
			for i := 0; i < retracted; i++ {
				_ = fs.handleEvent(event.InputFailed{TargetInputIndex: i, SrcTask: i, SrcAttempt: 0})
				_ = fs.handleEvent(dmFor(i, i, 1, id(i, 1)))
			}
		}()
		fs.start()
		runs, err := fs.collectMerged(factor)
		wg.Wait()
		if cerr := fs.close(); cerr != nil {
			t.Fatal(cerr)
		}
		if _, ok := runtime.AsInputReadError(err); ok {
			lost++
			continue
		}
		clean++
		var got []string
		for r := newMergeReader(runs); r.Next(); {
			got = append(got, string(r.Key()))
		}
		if n := svc.Counters.Get("SHUFFLE_INCREMENTS"); err != nil || len(runs) > factor || !reflect.DeepEqual(got, want) || n < phys {
			t.Fatalf("seed %d: err %v, %d runs, %d stored, keys %v, want %v", seed, err, len(runs), n, got, want)
		}
	}
	t.Logf("%d clean reads, %d retracted-after-merge", clean, lost)
}

package library

import (
	"bytes"
	"fmt"
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

func dmFor(idx, task, attempt int, id shuffle.OutputID) event.DataMovement {
	return event.DataMovement{
		SrcVertex: "map", SrcTask: task, SrcAttempt: attempt,
		TargetInput: "map", TargetInputIndex: idx,
		Payload: plugin.MustEncode(DMInfo{ID: id}),
	}
}

func registerRun(t *testing.T, svc runtime.Services, node string, id shuffle.OutputID, key string) []byte {
	t.Helper()
	data := encodePairs([]pair{{[]byte(key), []byte("v")}})
	if err := svc.Shuffle.Register(node, id, [][]byte{data}); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFetchParallelismResolution covers the knob's two tiers: the session
// value in Services, then the library default; below 1 clamps to serial.
func TestFetchParallelismResolution(t *testing.T) {
	svc := testServices(t)
	for session, want := range map[int]int{0: DefaultFetchParallelism, 2: 2, 1: 1, -3: 1} {
		svc.FetchParallelism = session
		fs := newFetchSet(ctxFor(svc, runtime.Meta{}, "map", nil, 1))
		if got := fs.knobs.fetchParallelism; got != want {
			t.Fatalf("session value %d: parallelism = %d, want %d", session, got, want)
		}
	}
}

// TestFetchesRunInParallel proves the pool actually overlaps fetches:
// with 4 fetchers and 8 pending movements, 4 fetch completions must be
// observable simultaneously. Under the old serial pump this blocks after
// the first, so the test guards with a timeout.
func TestFetchesRunInParallel(t *testing.T) {
	svc := testServices(t)
	svc.Counters = metrics.NewCounters()
	const phys = 8
	ctx := ctxFor(svc, runtime.Meta{DAG: "d", Vertex: "red"}, "map", nil, phys)
	fs := newFetchSet(ctx)

	entered := make(chan struct{})
	barrier := make(chan struct{})
	fs.testHookFetched = func(event.DataMovement) {
		entered <- struct{}{}
		<-barrier
	}
	for i := 0; i < phys; i++ {
		id := shuffle.OutputID{DAG: "d", Vertex: "map", Task: i, Attempt: 0}
		registerRun(t, svc, "n1", id, fmt.Sprintf("k%d", i))
		if err := fs.handleEvent(dmFor(i, i, 0, id)); err != nil {
			t.Fatal(err)
		}
	}
	fs.start()
	for i := 0; i < DefaultFetchParallelism; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d concurrent fetches; pool is not parallel", i)
		}
	}
	close(barrier)
	for i := 0; i < phys-DefaultFetchParallelism; i++ {
		<-entered
	}
	runs, err := fs.wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != phys {
		t.Fatalf("got %d runs", len(runs))
	}
	if peak := svc.Counters.Get("SHUFFLE_FETCHES_INFLIGHT_PEAK"); peak < int64(DefaultFetchParallelism) {
		t.Fatalf("in-flight peak = %d, want >= %d", peak, DefaultFetchParallelism)
	}
	if got := svc.Counters.Get("SHUFFLE_FETCHES"); got != phys {
		t.Fatalf("SHUFFLE_FETCHES = %d, want %d", got, phys)
	}
	if left := svc.Counters.Get("SHUFFLE_FETCHES_INFLIGHT"); left != 0 {
		t.Fatalf("in-flight gauge did not return to zero: %d", left)
	}
	if err := fs.close(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleFetchDoesNotClobberNewerAttempt is the focused regression for
// the missing stale-attempt guard: a fetch in flight across an
// InputFailed retraction must not repopulate runs with the retracted
// attempt's data (the old code stored unconditionally, so wait() could
// hand out retracted data before the replacement was fetched).
func TestStaleFetchDoesNotClobberNewerAttempt(t *testing.T) {
	svc := testServices(t)
	id0 := shuffle.OutputID{DAG: "d", Vertex: "map", Task: 0, Attempt: 0}
	id1 := shuffle.OutputID{DAG: "d", Vertex: "map", Task: 0, Attempt: 1}
	registerRun(t, svc, "n1", id0, "old")
	want := registerRun(t, svc, "n2", id1, "new")

	ctx := ctxFor(svc, runtime.Meta{DAG: "d", Vertex: "red"}, "map", nil, 1)
	fs := newFetchSet(ctx)
	fetched := make(chan int)
	release := make(chan struct{})
	fs.testHookFetched = func(dm event.DataMovement) {
		fetched <- dm.SrcAttempt
		<-release
	}

	if err := fs.handleEvent(dmFor(0, 0, 0, id0)); err != nil {
		t.Fatal(err)
	}
	fs.start()
	if at := <-fetched; at != 0 {
		t.Fatalf("first fetch was attempt %d", at)
	}
	// While attempt 0's data is fetched but not yet stored, the producer
	// is re-executed: retraction plus replacement movement arrive.
	if err := fs.handleEvent(event.InputFailed{TargetInputIndex: 0, SrcTask: 0, SrcAttempt: 0}); err != nil {
		t.Fatal(err)
	}
	if err := fs.handleEvent(dmFor(0, 0, 1, id1)); err != nil {
		t.Fatal(err)
	}
	release <- struct{}{} // let the stale attempt-0 result through

	// The replacement fetch runs next; until it completes nothing may be
	// stored for index 0 — the old bug stored attempt 0's data here.
	if at := <-fetched; at != 1 {
		t.Fatalf("second fetch was attempt %d", at)
	}
	_, stale := fs.storedRun(0)
	if stale {
		t.Fatal("retracted attempt's data was stored")
	}
	release <- struct{}{}

	runs, err := fs.wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(runs[0], want) {
		t.Fatalf("runs[0] holds stale data: %q", runs[0])
	}
	if err := fs.close(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleFetchErrorIsDropped: a fetch failing for a retracted attempt
// must not fail the consumer — the producer is already being re-executed.
func TestStaleFetchErrorIsDropped(t *testing.T) {
	svc := testServices(t)
	id0 := shuffle.OutputID{DAG: "d", Vertex: "map", Task: 0, Attempt: 0}
	id1 := shuffle.OutputID{DAG: "d", Vertex: "map", Task: 0, Attempt: 1}
	// Attempt 0's output is never registered, so fetching it fails with
	// ErrDataLost; attempt 1's is present.
	want := registerRun(t, svc, "n2", id1, "new")

	ctx := ctxFor(svc, runtime.Meta{DAG: "d", Vertex: "red"}, "map", nil, 1)
	fs := newFetchSet(ctx)
	fetched := make(chan int)
	release := make(chan struct{})
	fs.testHookFetched = func(dm event.DataMovement) {
		fetched <- dm.SrcAttempt
		<-release
	}

	if err := fs.handleEvent(dmFor(0, 0, 0, id0)); err != nil {
		t.Fatal(err)
	}
	fs.start()
	<-fetched // attempt 0 fetch has failed, result not yet reported
	if err := fs.handleEvent(event.InputFailed{TargetInputIndex: 0, SrcTask: 0, SrcAttempt: 0}); err != nil {
		t.Fatal(err)
	}
	if err := fs.handleEvent(dmFor(0, 0, 1, id1)); err != nil {
		t.Fatal(err)
	}
	release <- struct{}{}
	<-fetched
	release <- struct{}{}

	runs, err := fs.wait()
	if err != nil {
		t.Fatalf("stale fetch error failed the consumer: %v", err)
	}
	if !bytes.Equal(runs[0], want) {
		t.Fatalf("runs[0] = %q", runs[0])
	}
	if err := fs.close(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelFetchStress drives a large fetch set with injected
// transient errors plus mid-flight retractions, under -race in CI.
func TestParallelFetchStress(t *testing.T) {
	fsys := testServices(t)
	sh := shuffle.New(shuffle.Config{Chaos: chaos.New(11, chaos.Spec{TransientFetchProb: 0.3})})
	for i := 0; i < 3; i++ {
		sh.AddNode(fmt.Sprintf("n%d", i), "r0")
	}
	svc := fsys
	svc.Shuffle = sh
	svc.Counters = metrics.NewCounters()

	const phys = 40
	const retracted = 6
	ctx := ctxFor(svc, runtime.Meta{DAG: "d", Vertex: "red"}, "map", nil, phys)
	fs := newFetchSet(ctx)
	fs.fetcher.MaxRetries = 100 // absorb the 30% injected transient errors
	fs.fetcher.Backoff = time.Microsecond

	want := make([][]byte, phys)
	for i := 0; i < phys; i++ {
		id := shuffle.OutputID{DAG: "d", Vertex: "map", Task: i, Attempt: 0}
		want[i] = registerRun(t, svc, fmt.Sprintf("n%d", i%3), id, fmt.Sprintf("t%d-a0", i))
	}
	for i := 0; i < retracted; i++ {
		id1 := shuffle.OutputID{DAG: "d", Vertex: "map", Task: i, Attempt: 1}
		want[i] = registerRun(t, svc, fmt.Sprintf("n%d", (i+1)%3), id1, fmt.Sprintf("t%d-a1", i))
	}
	// Deliver the event stream in mailbox order (DM a0 … InputFailed a0,
	// DM a1) while the fetcher pool races against it, so retractions land
	// on queued, in-flight and already-stored fetches alike.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < phys; i++ {
			id := shuffle.OutputID{DAG: "d", Vertex: "map", Task: i, Attempt: 0}
			_ = fs.handleEvent(dmFor(i, i, 0, id))
		}
		for i := 0; i < retracted; i++ {
			id1 := shuffle.OutputID{DAG: "d", Vertex: "map", Task: i, Attempt: 1}
			_ = fs.handleEvent(event.InputFailed{TargetInputIndex: i, SrcTask: i, SrcAttempt: 0})
			_ = fs.handleEvent(dmFor(i, i, 1, id1))
		}
	}()
	fs.start()
	wg.Wait()

	runs, err := fs.wait()
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if !bytes.Equal(runs[i], want[i]) {
			t.Fatalf("run %d = %q, want %q", i, runs[i], want[i])
		}
	}
	if svc.Counters.Get("SHUFFLE_FETCH_RETRIES") == 0 {
		t.Fatal("expected injected transient errors to be retried")
	}
	if err := fs.close(); err != nil {
		t.Fatal(err)
	}
}

package am

import (
	"bytes"
	"errors"
	"fmt"
	"path"
	"reflect"
	"sync"
	"testing"
	"time"

	"tez/internal/event"
	"tez/internal/library"
	"tez/internal/plugin"
	"tez/internal/runtime"
)

// announceScript coordinates one run of TestRetractAnnouncedAttempt.
// Source task 0's first attempt waits for every consumer to be running,
// announces through ctx.Emit and then fails Close. Task 1 holds its own
// announcement back until every consumer has the retraction, so none can
// finish reading first; so does task 0's rerun, so the retraction has to
// come from the attempt's death and not from the rerun's success.
type announceScript struct {
	fail bool

	mu               sync.Mutex
	seen             map[int][]string // consumer task -> what it was told about source task 0
	ready, retracted gate             // every consumer's input started / saw the InputFailed
}

// gate opens once `need` parties have arrived.
type gate struct {
	need int
	open chan struct{}
}

func (g *gate) arrive() { // under announceScript.mu
	if g.need--; g.need == 0 {
		close(g.open)
	}
}

func (g *gate) wait() error {
	select {
	case <-g.open:
		return nil
	case <-time.After(10 * time.Second):
		return errors.New("amtest: gate never opened")
	}
}

var announce *announceScript

type recordingInput struct {
	library.OrderedGroupedKVInput
	task int
}

func (in *recordingInput) Initialize(ctx *runtime.Context) error {
	in.task = ctx.Meta.Task
	return in.OrderedGroupedKVInput.Initialize(ctx)
}

func (in *recordingInput) Start() error {
	announce.mu.Lock()
	announce.ready.arrive()
	announce.mu.Unlock()
	return in.OrderedGroupedKVInput.Start()
}

func (in *recordingInput) HandleEvent(ev event.Event) error {
	// The input goes first: once the script hears of a retraction, the
	// fetch set has already dropped what it retracts.
	err := in.OrderedGroupedKVInput.HandleEvent(ev)
	s := announce
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e := ev.(type) {
	case event.DataMovement:
		if e.SrcTask == 0 {
			s.seen[in.task] = append(s.seen[in.task], fmt.Sprintf("moved a%d", e.SrcAttempt))
		}
	case event.InputFailed:
		if e.SrcTask == 0 {
			s.seen[in.task] = append(s.seen[in.task], fmt.Sprintf("failed a%d", e.SrcAttempt))
			s.retracted.arrive()
		}
	}
	return err
}

type announcingOutput struct {
	library.OrderedPartitionedKVOutput
	ctx *runtime.Context
}

func (o *announcingOutput) Initialize(ctx *runtime.Context) error {
	o.ctx = ctx
	return o.OrderedPartitionedKVOutput.Initialize(ctx)
}

func (o *announcingOutput) Close() ([]event.Event, error) {
	events, err := o.OrderedPartitionedKVOutput.Close()
	if err != nil || !announce.fail || o.ctx.Meta.Task > 1 {
		return events, err
	}
	if o.ctx.Meta.Task == 1 || o.ctx.Meta.Attempt > 0 {
		return events, announce.retracted.wait()
	}
	if err := announce.ready.wait(); err != nil {
		return nil, err
	}
	for _, ev := range events {
		o.ctx.Emit(ev)
	}
	return nil, errors.New("amtest: close failed after announcing")
}

// TestRetractAnnouncedAttempt drives the AM's per-attempt movement
// ownership against an attempt that announced data and then died: each
// running consumer is told once to drop it, the rerun's movements take its
// place, and the committed files equal a fault-free run's.
func TestRetractAnnouncedAttempt(t *testing.T) {
	runtime.RegisterInput("amtest.recording_in", func() runtime.Input { return &recordingInput{} })
	runtime.RegisterOutput("amtest.announcing_out", func() runtime.Output { return &announcingOutput{} })
	const reducers = 3
	var lines []string
	for i := 0; i < 600; i++ { // four 4 KiB splits: tasks 2 and 3 are not held by the script
		lines = append(lines, fmt.Sprintf("w%d w%d shared common", i%37, i%11))
	}
	run := func(fail bool) (map[string][]byte, DAGResult) {
		announce = &announceScript{
			fail: fail, seen: map[int][]string{},
			ready:     gate{reducers, make(chan struct{})},
			retracted: gate{reducers, make(chan struct{})},
		}
		plat := newTestPlatform(4)
		defer plat.Stop()
		writeLines(t, plat, "/in/announce", lines)
		d := wordCountDAG("announce", "/in/announce", "/out/announce", reducers)
		d.Edges[0].Property.Output = plugin.Desc("amtest.announcing_out", nil)
		d.Edges[0].Property.Input = plugin.Desc("amtest.recording_in", nil)
		// Consumers start as soon as any map task finishes, at their
		// submitted parallelism, so they are running when task 0 announces.
		res, err := RunDAG(plat, Config{
			Name: "announce", SlowStartMin: 0.01, SlowStartMax: 0.01, DisableAutoParallelism: true,
		}, d)
		if err != nil || res.Status != DAGSucceeded {
			t.Fatalf("fail=%v: %v %v", fail, res.Status, err)
		}
		parts := map[string][]byte{}
		for _, f := range plat.FS.List("/out/announce/part-") {
			data, err := plat.FS.ReadFile(f, "")
			if err != nil {
				t.Fatal(err)
			}
			parts[path.Base(f)] = data
		}
		return parts, res
	}
	want, _ := run(false)
	got, res := run(true)

	if n := res.Counters.Get("ATTEMPTS_FAILED"); n != 1 {
		t.Fatalf("ATTEMPTS_FAILED = %d, want 1", n)
	}
	told := []string{"moved a0", "failed a0", "moved a1"}
	if !reflect.DeepEqual(announce.seen, map[int][]string{0: told, 1: told, 2: told}) {
		t.Errorf("consumers were told %v about source task 0, want %v each", announce.seen, told)
	}
	if len(got) != reducers || len(want) != reducers {
		t.Fatalf("%d part files, fault-free run %d, want %d", len(got), len(want), reducers)
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("%s differs from the fault-free run (%d vs %d bytes)", name, len(got[name]), len(data))
		}
	}
}

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

// announceMode picks what source task 0's first attempt does after it
// announces its output through ctx.Emit.
type announceMode int

const (
	announceNone announceMode = iota // fault-free: no early announcement
	announceFail                     // fail Close; the rerun wins
	announceTwin                     // block until a speculative twin wins
)

// announceScript coordinates one run of the announce tests. Source task
// 0's first attempt waits until every consumer is running, announces the
// events its output's Close returned through ctx.Emit, and then fails or
// waits to be killed. Every later attempt of task 0 waits for that
// announcement, so none can win before it.
type announceScript struct {
	mode announceMode

	mu        sync.Mutex
	seen      map[int][]string // consumer task -> what it was told about source task 0
	vmEvents  map[int]int      // source task -> VertexManagerEvents the consumer's manager got
	ready     gate             // every consumer's input started
	announced gate             // attempt 0 has emitted its events
}

// gate opens once `need` parties have arrived.
type gate struct {
	need int
	open chan struct{}
}

func newGate(need int) gate { return gate{need, make(chan struct{})} }

func (g *gate) arrive() { // under announceScript.mu
	if g.need--; g.need == 0 {
		close(g.open)
	}
}

// wait bounds a broken run so it fails instead of hanging; no passing
// run waits on the timer.
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
	s := announce
	if err != nil || s.mode == announceNone || o.ctx.Meta.Task != 0 {
		return events, err
	}
	if o.ctx.Meta.Attempt > 0 {
		return events, s.announced.wait()
	}
	if err := s.ready.wait(); err != nil {
		return nil, err
	}
	// The movements and the VMStats event, sent before the attempt ends.
	for _, ev := range events {
		o.ctx.Emit(ev)
	}
	s.mu.Lock()
	s.announced.arrive()
	s.mu.Unlock()
	if s.mode == announceTwin {
		// The twin's success kills this attempt's container.
		select {
		case <-o.ctx.Stop:
			return nil, errors.New("amtest: killed after announcing")
		case <-time.After(10 * time.Second):
			return nil, errors.New("amtest: twin never won")
		}
	}
	return nil, errors.New("amtest: close failed after announcing")
}

// countingVM is the consumer's ShuffleVertexManager, counting the
// statistics events it is given per source task.
type countingVM struct{ ShuffleVertexManager }

func (m *countingVM) OnVertexManagerEvent(ev event.VertexManagerEvent) {
	announce.mu.Lock()
	announce.vmEvents[ev.SrcTask]++
	announce.mu.Unlock()
	m.ShuffleVertexManager.OnVertexManagerEvent(ev)
}

// runAnnounce runs a word count whose source task 0 announces early per
// mode, and checks what the consumers and their manager were told against
// a fault-free run: only the winning attempt a1 of task 0, one statistics
// event per source task, and the same committed files.
func runAnnounce(t *testing.T, mode announceMode) DAGResult {
	runtime.RegisterInput("amtest.recording_in", func() runtime.Input { return &recordingInput{} })
	runtime.RegisterOutput("amtest.announcing_out", func() runtime.Output { return &announcingOutput{} })
	RegisterVertexManager("amtest.counting_vm", func() VertexManager { return &countingVM{} })
	const reducers = 3
	var lines []string
	for i := 0; i < 600; i++ { // four 4 KiB splits: four source tasks
		lines = append(lines, fmt.Sprintf("w%d w%d shared common", i%37, i%11))
	}
	run := func(mode announceMode) (map[string][]byte, DAGResult) {
		announce = &announceScript{
			mode: mode, seen: map[int][]string{}, vmEvents: map[int]int{},
			ready: newGate(reducers), announced: newGate(1),
		}
		plat := newTestPlatform(4)
		defer plat.Stop()
		writeLines(t, plat, "/in/announce", lines)
		d := wordCountDAG("announce", "/in/announce", "/out/announce", reducers)
		d.Edges[0].Property.Output = plugin.Desc("amtest.announcing_out", nil)
		d.Edges[0].Property.Input = plugin.Desc("amtest.recording_in", nil)
		d.Vertex("summation").Manager = plugin.Desc("amtest.counting_vm", nil)
		// Consumers start as soon as any map task finishes, at their
		// submitted parallelism, so they are running when task 0 announces.
		cfg := Config{
			Name: "announce", SlowStartMin: 0.01, SlowStartMax: 0.01, DisableAutoParallelism: true,
		}
		if mode == announceTwin {
			cfg.Speculation = true
			cfg.SpeculationInterval = 2 * time.Millisecond
			cfg.SpeculationFactor = 3
		}
		res, err := RunDAG(plat, cfg, d)
		if err != nil || res.Status != DAGSucceeded {
			t.Fatalf("mode %d: %v %v", mode, res.Status, err)
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
	want, _ := run(announceNone)
	got, res := run(mode)

	told := []string{"moved a1"}
	if !reflect.DeepEqual(announce.seen, map[int][]string{0: told, 1: told, 2: told}) {
		t.Errorf("consumers were told %v about source task 0, want %v each", announce.seen, told)
	}
	if oneEach := map[int]int{0: 1, 1: 1, 2: 1, 3: 1}; !reflect.DeepEqual(announce.vmEvents, oneEach) {
		t.Errorf("the consumer's manager got %v statistics events per source task, want %v", announce.vmEvents, oneEach)
	}
	if len(got) != reducers || len(want) != reducers {
		t.Fatalf("%d part files, fault-free run %d, want %d", len(got), len(want), reducers)
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("%s differs from the fault-free run (%d vs %d bytes)", name, len(got[name]), len(data))
		}
	}
	return res
}

// TestRetractAnnouncedAttempt: an attempt that announced its output and
// then failed was never published, so no consumer has anything of it to
// retract — each hears only of the rerun, and no InputFailed is sent.
func TestRetractAnnouncedAttempt(t *testing.T) {
	res := runAnnounce(t, announceFail)
	if n := res.Counters.Get("ATTEMPTS_FAILED"); n != 1 {
		t.Fatalf("ATTEMPTS_FAILED = %d, want 1", n)
	}
}

// TestAnnouncedTwinLosesUnseen: an attempt that announced its output and
// then lost the race to its speculative twin is killed unpublished; the
// consumers hear only of the twin.
func TestAnnouncedTwinLosesUnseen(t *testing.T) {
	res := runAnnounce(t, announceTwin)
	if n := res.Counters.Get("SPECULATIVE_ATTEMPTS"); n != 1 {
		t.Fatalf("SPECULATIVE_ATTEMPTS = %d, want 1", n)
	}
	if n := res.Counters.Get("ATTEMPTS_FAILED"); n != 0 {
		t.Fatalf("ATTEMPTS_FAILED = %d, want 0", n)
	}
}

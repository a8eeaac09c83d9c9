package runtime

import (
	"errors"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tez/internal/event"
	"tez/internal/mailbox"
	"tez/internal/plugin"
)

// Fake IPOs for runner tests.

type fakeProcessor struct {
	initialized bool
	run         func(in map[string]Input, out map[string]Output) error
}

func (p *fakeProcessor) Initialize(*Context) error { p.initialized = true; return nil }
func (p *fakeProcessor) Run(in map[string]Input, out map[string]Output) error {
	if p.run != nil {
		return p.run(in, out)
	}
	return nil
}
func (p *fakeProcessor) Close() error { return nil }

type fakeInput struct {
	mu     sync.Mutex
	events []event.Event
	name   string
	fail   error
}

func (i *fakeInput) Initialize(ctx *Context) error { i.name = ctx.Name; return nil }
func (i *fakeInput) HandleEvent(ev event.Event) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.events = append(i.events, ev)
	return nil
}
func (i *fakeInput) Start() error { return nil }
func (i *fakeInput) Reader() (any, error) {
	if i.fail != nil {
		return nil, i.fail
	}
	return &SliceKVReader{}, nil
}
func (i *fakeInput) Close() error { return nil }
func (i *fakeInput) seen() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return len(i.events)
}

type fakeOutput struct {
	closedEvents []event.Event
}

func (o *fakeOutput) Initialize(*Context) error     { return nil }
func (o *fakeOutput) Writer() (any, error)          { return KVWriter(nil), nil }
func (o *fakeOutput) Close() ([]event.Event, error) { return o.closedEvents, nil }

func TestRunnerHappyPath(t *testing.T) {
	var lastProc *fakeProcessor
	var lastIn *fakeInput
	var lastOut *fakeOutput
	RegisterProcessor("rt.proc", func() Processor { lastProc = &fakeProcessor{}; return lastProc })
	RegisterInput("rt.in", func() Input { lastIn = &fakeInput{}; return lastIn })
	RegisterOutput("rt.out", func() Output {
		lastOut = &fakeOutput{closedEvents: []event.Event{event.VertexManagerEvent{TargetVertex: "next"}}}
		return lastOut
	})

	var emitted []event.Event
	var mu sync.Mutex
	r := &TaskRunner{
		Spec: TaskSpec{
			Meta:      Meta{DAG: "d", Vertex: "v", Task: 0},
			Processor: plugin.Desc("rt.proc", nil),
			Inputs:    []IOSpec{{Name: "up", Descriptor: plugin.Desc("rt.in", nil), PhysicalCount: 2}},
			Outputs:   []IOSpec{{Name: "down", Descriptor: plugin.Desc("rt.out", nil), PhysicalCount: 1}},
		},
		Incoming: mailbox.New[event.Event](),
		Emit: func(ev event.Event) {
			mu.Lock()
			defer mu.Unlock()
			emitted = append(emitted, ev)
		},
	}
	// Queue a routed event before the run starts; the pump must deliver it.
	r.Incoming.Put(event.DataMovement{TargetInput: "up", TargetInputIndex: 1})
	if err := r.Run(make(chan struct{})); err != nil {
		t.Fatal(err)
	}
	if !lastProc.initialized {
		t.Fatal("processor not initialized")
	}
	if lastIn.name != "up" {
		t.Fatalf("input context name = %q", lastIn.name)
	}
	if lastIn.seen() != 1 {
		t.Fatalf("input saw %d events", lastIn.seen())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(emitted) != 1 {
		t.Fatalf("emitted %d events, want the output close event", len(emitted))
	}
}

// orderedOutput announces its own name when closed.
type orderedOutput struct{ name string }

func (o *orderedOutput) Initialize(ctx *Context) error { o.name = ctx.Name; return nil }
func (o *orderedOutput) Writer() (any, error)          { return KVWriter(nil), nil }
func (o *orderedOutput) Close() ([]event.Event, error) {
	return []event.Event{event.DataMovement{TargetVertex: o.name}}, nil
}

// TestRunnerAnnouncesOutputsInSpecOrder: a multi-output task closes its
// outputs, and so announces their DataMovements, in TaskSpec order on
// every run. Ranging over the outputs map, the order changed from run to
// run (three outputs agree by chance one time in six).
func TestRunnerAnnouncesOutputsInSpecOrder(t *testing.T) {
	RegisterProcessor("rt.order_proc", func() Processor { return &fakeProcessor{} })
	RegisterOutput("rt.order_out", func() Output { return &orderedOutput{} })
	want := []string{"zeta", "alpha", "mid"}
	for run := 0; run < 50; run++ {
		var got []string
		r := &TaskRunner{
			Spec:     TaskSpec{Processor: plugin.Desc("rt.order_proc", nil)},
			Incoming: mailbox.New[event.Event](),
			Emit:     func(ev event.Event) { got = append(got, ev.(event.DataMovement).TargetVertex) },
		}
		for _, name := range want {
			r.Spec.Outputs = append(r.Spec.Outputs, IOSpec{Name: name, Descriptor: plugin.Desc("rt.order_out", nil), PhysicalCount: 1})
		}
		if err := r.Run(make(chan struct{})); err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("run %d announced %v, want spec order %v", run, got, want)
		}
	}
}

func TestRunnerEmitsInputReadError(t *testing.T) {
	RegisterProcessor("rt.proc_read", func() Processor {
		return &fakeProcessor{run: func(in map[string]Input, _ map[string]Output) error {
			_, err := in["up"].Reader()
			return err
		}}
	})
	RegisterInput("rt.in_fail", func() Input {
		return &fakeInput{fail: &InputReadError{
			InputName: "up", SrcVertex: "prev", SrcTask: 3, SrcAttempt: 1,
			Err: errors.New("gone"),
		}}
	})
	var emitted []event.Event
	var mu sync.Mutex
	r := &TaskRunner{
		Spec: TaskSpec{
			Meta:      Meta{DAG: "d", Vertex: "v", Task: 5},
			Processor: plugin.Desc("rt.proc_read", nil),
			Inputs:    []IOSpec{{Name: "up", Descriptor: plugin.Desc("rt.in_fail", nil)}},
		},
		Incoming: mailbox.New[event.Event](),
		Emit: func(ev event.Event) {
			mu.Lock()
			defer mu.Unlock()
			emitted = append(emitted, ev)
		},
	}
	err := r.Run(make(chan struct{}))
	if _, ok := AsInputReadError(err); !ok {
		t.Fatalf("err = %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(emitted) != 1 {
		t.Fatalf("emitted %d events", len(emitted))
	}
	ire, ok := emitted[0].(event.InputReadError)
	if !ok {
		t.Fatalf("emitted %T", emitted[0])
	}
	if ire.SrcVertex != "prev" || ire.SrcTask != 3 || ire.SrcAttempt != 1 || ire.Task != 5 {
		t.Fatalf("event = %+v", ire)
	}
}

// parkedInput behaves like a shuffle input's fetch set: Start parks a
// goroutine that only the container's stop channel or Close releases, and
// Close waits for it to exit.
type parkedInput struct {
	fakeInput
	stop         <-chan struct{}
	quit, exited chan struct{}
	closes       int
}

func (i *parkedInput) Initialize(ctx *Context) error {
	i.stop, i.quit, i.exited = ctx.Stop, make(chan struct{}), make(chan struct{})
	return nil
}

func (i *parkedInput) Start() error {
	go func() {
		defer close(i.exited)
		select {
		case <-i.stop:
		case <-i.quit:
		}
	}()
	return nil
}

func (i *parkedInput) Close() error {
	i.closes++
	close(i.quit)
	<-i.exited
	return nil
}

// TestRunnerClosesInputsOnFailure: an attempt whose processor fails after
// its inputs started must still close them — the stop channel belongs to
// the container, which lives on to run the next task, so nothing else
// would release a shuffle input's fetchers and the runs they hold.
func TestRunnerClosesInputsOnFailure(t *testing.T) {
	var ins []*parkedInput
	RegisterInput("rt.in_parked", func() Input {
		ins = append(ins, &parkedInput{})
		return ins[len(ins)-1]
	})
	boom := errors.New("boom")
	RegisterProcessor("rt.proc_boom", func() Processor {
		return &fakeProcessor{run: func(map[string]Input, map[string]Output) error { return boom }}
	})
	RegisterProcessor("rt.proc_ok", func() Processor { return &fakeProcessor{} })

	container := make(chan struct{}) // never closed: the container outlives both tasks
	baseline := goruntime.NumGoroutine()
	for proc, want := range map[string]error{"rt.proc_boom": boom, "rt.proc_ok": nil} {
		r := &TaskRunner{
			Spec: TaskSpec{
				Processor: plugin.Desc(proc, nil),
				Inputs: []IOSpec{
					{Name: "up", Descriptor: plugin.Desc("rt.in_parked", nil)},
					{Name: "side", Descriptor: plugin.Desc("rt.in_parked", nil)},
				},
			},
			Incoming: mailbox.New[event.Event](),
			Emit:     func(event.Event) {},
		}
		if err := r.Run(container); !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", proc, err, want)
		}
		// A goroutine that has signalled its exit may still be counted for
		// a moment; one that is parked stays counted for good.
		for deadline := time.Now().Add(2 * time.Second); goruntime.NumGoroutine() > baseline; goruntime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("after %s: %d goroutines, %d before the first task", proc, goruntime.NumGoroutine(), baseline)
			}
		}
	}
	for n, in := range ins {
		if in.closes != 1 {
			t.Fatalf("input %d closed %d times, want once", n, in.closes)
		}
	}
	if len(ins) != 4 {
		t.Fatalf("%d inputs created, want 4", len(ins))
	}
}

func TestRunnerUnknownProcessor(t *testing.T) {
	r := &TaskRunner{
		Spec:     TaskSpec{Processor: plugin.Desc("rt.nonexistent", nil)},
		Incoming: mailbox.New[event.Event](),
		Emit:     func(event.Event) {},
	}
	err := r.Run(make(chan struct{}))
	if err == nil || !strings.Contains(err.Error(), "nonexistent") {
		t.Fatalf("err = %v", err)
	}
}

func TestObjectRegistryScoping(t *testing.T) {
	reg := NewObjectRegistry()
	m1 := Meta{DAG: "dag1", Vertex: "v1"}
	m2 := Meta{DAG: "dag1", Vertex: "v2"}
	m3 := Meta{DAG: "dag2", Vertex: "v1"}

	reg.Add(LifetimeVertex, m1, "vkey", 1)
	reg.Add(LifetimeDAG, m1, "dkey", 2)
	reg.Add(LifetimeSession, m1, "skey", 3)

	if v, ok := reg.Get(m1, "vkey"); !ok || v != 1 {
		t.Fatal("same-vertex get failed")
	}
	if _, ok := reg.Get(m2, "vkey"); ok {
		t.Fatal("vertex-scoped entry visible to other vertex")
	}
	if v, ok := reg.Get(m2, "dkey"); !ok || v != 2 {
		t.Fatal("dag-scoped entry invisible within dag")
	}
	if _, ok := reg.Get(m3, "dkey"); ok {
		t.Fatal("dag-scoped entry visible to other dag")
	}
	if v, ok := reg.Get(m3, "skey"); !ok || v != 3 {
		t.Fatal("session entry invisible")
	}

	reg.SweepVertex("dag1", "v1")
	if _, ok := reg.Get(m1, "vkey"); ok {
		t.Fatal("sweep vertex did not evict")
	}
	reg.SweepDAG("dag1")
	if _, ok := reg.Get(m1, "dkey"); ok {
		t.Fatal("sweep dag did not evict")
	}
	if _, ok := reg.Get(m1, "skey"); !ok {
		t.Fatal("sweep dag evicted session entry")
	}
	if reg.Len() != 1 {
		t.Fatalf("Len = %d", reg.Len())
	}
}

func TestObjectRegistryAddReturnsPrevious(t *testing.T) {
	reg := NewObjectRegistry()
	m := Meta{DAG: "d", Vertex: "v"}
	if prev := reg.Add(LifetimeDAG, m, "k", "a"); prev != nil {
		t.Fatalf("prev = %v", prev)
	}
	if prev := reg.Add(LifetimeDAG, m, "k", "b"); prev != "a" {
		t.Fatalf("prev = %v", prev)
	}
}

func TestMetaID(t *testing.T) {
	m := Meta{DAG: "d", Vertex: "v", Task: 7, Attempt: 2}
	if got := m.ID(); got != "d/v/t007_a2" {
		t.Fatalf("ID = %q", got)
	}
}

func TestObjectRegistryDelete(t *testing.T) {
	reg := NewObjectRegistry()
	m1 := Meta{DAG: "dag1", Vertex: "v1"}
	m2 := Meta{DAG: "dag2", Vertex: "v9"}

	reg.Add(LifetimeDAG, m1, "dkey", 1)
	reg.Add(LifetimeSession, m1, "skey", 2)

	// Delete obeys Get's visibility: another DAG cannot evict a
	// DAG-scoped entry it cannot see.
	if _, ok := reg.Delete(m2, "dkey"); ok {
		t.Fatal("delete crossed DAG scope")
	}
	if v, ok := reg.Delete(m1, "dkey"); !ok || v != 1 {
		t.Fatalf("delete = %v %v", v, ok)
	}
	if _, ok := reg.Get(m1, "dkey"); ok {
		t.Fatal("entry survived delete")
	}
	// Session entries are visible — and deletable — from any scope: that
	// is the explicit-eviction path iterative drivers rely on, since no
	// framework sweep ever touches session lifetime.
	if v, ok := reg.Delete(m2, "skey"); !ok || v != 2 {
		t.Fatalf("session delete = %v %v", v, ok)
	}
	if _, ok := reg.Delete(m1, "skey"); ok {
		t.Fatal("double delete reported success")
	}
	if reg.Len() != 0 {
		t.Fatalf("Len = %d", reg.Len())
	}
}

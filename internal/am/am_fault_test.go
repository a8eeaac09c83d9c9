package am

import (
	"fmt"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tez/internal/chaos"
	"tez/internal/cluster"
	"tez/internal/dag"
	"tez/internal/event"
	"tez/internal/library"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/runtime"
	"tez/internal/shuffle"
	"tez/internal/timeline"
)

// slowOnFirstAttempt simulates an environment-induced straggler: task 0's
// first attempt hangs (until killed), any other attempt is fast.
type slowOnFirstAttempt struct{ ctx *runtime.Context }

func (p *slowOnFirstAttempt) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *slowOnFirstAttempt) Run(_ map[string]runtime.Input, out map[string]runtime.Output) error {
	if p.ctx.Meta.Task == 0 && p.ctx.Meta.Attempt == 0 {
		select {
		case <-p.ctx.Stop:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("straggler was never mitigated")
		}
	}
	w, err := out["sink"].Writer()
	if err != nil {
		return err
	}
	return w.(runtime.KVWriter).Write([]byte(fmt.Sprintf("t%d", p.ctx.Meta.Task)), []byte("ok"))
}
func (p *slowOnFirstAttempt) Close() error { return nil }

func TestSpeculationMitigatesStraggler(t *testing.T) {
	runtime.RegisterProcessor("amtest.straggler", func() runtime.Processor { return &slowOnFirstAttempt{} })
	plat := newTestPlatform(4)
	defer plat.Stop()
	d := dag.New("spec")
	v := d.AddVertex("v", plugin.Desc("amtest.straggler", nil), 6)
	v.Sinks = []dag.DataSink{library.DFSSink("sink", "/out/spec")}
	journal := timeline.New()
	cfg := Config{
		Name:                "t",
		Speculation:         true,
		SpeculationInterval: 2 * time.Millisecond,
		SpeculationFactor:   3,
		Timeline:            journal,
	}
	start := time.Now()
	res, err := RunDAG(plat, cfg, d)
	if err != nil || res.Status != DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("speculation did not rescue the straggler in time")
	}
	if res.Counters.Get("SPECULATIVE_ATTEMPTS") == 0 {
		t.Fatal("no speculative attempt launched")
	}
	type attemptKey struct{ task, attempt int }
	speculative := map[attemptKey]bool{}
	spec := 0
	for _, e := range journal.Events() {
		k := attemptKey{e.Task, e.Attempt}
		switch {
		case e.Type == timeline.AttemptRequested && e.Info == "speculative":
			speculative[k] = true
		case e.Type == timeline.AttemptFinished && e.Info == "SUCCEEDED" && speculative[k]:
			spec++
		}
	}
	if spec == 0 {
		t.Fatal("speculative attempt did not win")
	}
}

// vmEventGated schedules its vertex only after a VertexManagerEvent
// arrives — used to force out-of-order scheduling inversions.
type vmEventGated struct{ ctx VertexManagerContext }

func (m *vmEventGated) Initialize(ctx VertexManagerContext) error { m.ctx = ctx; return nil }
func (m *vmEventGated) OnVertexStarted()                          {}
func (m *vmEventGated) OnSourceTaskCompleted(string, int)         {}
func (m *vmEventGated) OnVertexManagerEvent(event.VertexManagerEvent) {
	p := m.ctx.Parallelism()
	ids := make([]int, p)
	for i := range ids {
		ids[i] = i
	}
	m.ctx.ScheduleTasks(ids)
}

// pokeProducer sends the gated producer its VertexManagerEvent and
// succeeds. The event is published at that success — after the poker's
// container has already gone to the request waiting for it.
type pokeProducer struct{ ctx *runtime.Context }

func (p *pokeProducer) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *pokeProducer) Run(map[string]runtime.Input, map[string]runtime.Output) error {
	p.ctx.Emit(event.VertexManagerEvent{TargetVertex: "producer", SrcVertex: p.ctx.Meta.Vertex})
	return nil
}
func (p *pokeProducer) Close() error { return nil }

// readProducer blocks reading its (not yet produced) input — occupying
// the only container.
type readProducer struct{}

func (p *readProducer) Initialize(*runtime.Context) error { return nil }
func (p *readProducer) Run(in map[string]runtime.Input, out map[string]runtime.Output) error {
	r, err := in["producer"].Reader() // blocks until data or kill
	if err != nil {
		return err
	}
	g := r.(runtime.GroupedKVReader)
	w, err := out["sink"].Writer()
	if err != nil {
		return err
	}
	kw := w.(runtime.KVWriter)
	for g.Next() {
		if err := kw.Write(g.Key(), []byte(strconv.Itoa(len(g.Values())))); err != nil {
			return err
		}
	}
	return g.Err()
}
func (p *readProducer) Close() error { return nil }

func TestDeadlockPreemptionResolvesInversion(t *testing.T) {
	RegisterVertexManager("amtest.gated", func() VertexManager { return &vmEventGated{} })
	runtime.RegisterProcessor("amtest.poke", func() runtime.Processor { return &pokeProducer{} })
	runtime.RegisterProcessor("amtest.read", func() runtime.Processor { return &readProducer{} })
	runtime.RegisterProcessor("amtest.emit2", func() runtime.Processor { return &emitProducer{} })

	// One node, one slot. The producer is gated until the poker succeeds;
	// the poker's container goes to the waiting consumer before the poke
	// is published, so the consumer holds the only slot while the producer
	// it reads from starves — a genuine scheduling deadlock.
	cfg := platform.Fast(1)
	cfg.Cluster.NodeResource = cluster.Resource{MemoryMB: 1024, VCores: 1}
	plat := platform.New(cfg)
	defer plat.Stop()

	d := dag.New("deadlock")
	prod := d.AddVertex("producer", plugin.Desc("amtest.emit2", nil), 1)
	prod.Manager = plugin.Desc("amtest.gated", nil)
	poker := d.AddVertex("poker", plugin.Desc("amtest.poke", nil), 1)
	poker.Manager = plugin.Desc(ImmediateStartVertexManagerName, nil)
	cons := d.AddVertex("consumer", plugin.Desc("amtest.read", nil), 1)
	cons.Manager = plugin.Desc(ImmediateStartVertexManagerName, nil)
	cons.Sinks = []dag.DataSink{library.DFSSink("sink", "/out/dl")}
	d.Connect(prod, cons, library.OrderedEdge(library.OrderedPartitionedConfig{}))
	amCfg := Config{Name: "t"}
	done := make(chan struct{})
	var res DAGResult
	var err error
	go func() {
		res, err = RunDAG(plat, amCfg, d)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock was never resolved")
	}
	if err != nil || res.Status != DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	if res.Counters.Get("DEADLOCK_PREEMPTIONS") == 0 {
		t.Fatal("no deadlock preemption recorded")
	}
	counts := readCounts(t, plat, "/out/dl")
	if counts["k"] != 1 {
		t.Fatalf("output = %v", counts)
	}
}

// slowEmit produces a pair, then (consumer side) a reader that takes long
// enough for the test to kill a node under it.
type slowReduce struct {
	ctx   *runtime.Context
	delay time.Duration
}

func (p *slowReduce) Initialize(ctx *runtime.Context) error {
	p.ctx = ctx
	p.delay = 150 * time.Millisecond
	return nil
}

func (p *slowReduce) Run(in map[string]runtime.Input, out map[string]runtime.Output) error {
	select {
	case <-time.After(p.delay):
	case <-p.ctx.Stop:
		return nil
	}
	r, err := in["producer"].Reader()
	if err != nil {
		return err
	}
	g := r.(runtime.GroupedKVReader)
	w, err := out["sink"].Writer()
	if err != nil {
		return err
	}
	kw := w.(runtime.KVWriter)
	for g.Next() {
		if err := kw.Write(g.Key(), []byte(strconv.Itoa(len(g.Values())))); err != nil {
			return err
		}
	}
	return g.Err()
}
func (p *slowReduce) Close() error { return nil }

func TestNodeFailureProactiveReexecution(t *testing.T) {
	runtime.RegisterProcessor("amtest.emit3", func() runtime.Processor { return &emitProducer{} })
	runtime.RegisterProcessor("amtest.slowreduce", func() runtime.Processor { return &slowReduce{} })
	plat := newTestPlatform(4)
	defer plat.Stop()

	d := dag.New("nodeloss")
	prod := d.AddVertex("producer", plugin.Desc("amtest.emit3", nil), 2)
	cons := d.AddVertex("consumer", plugin.Desc("amtest.slowreduce", nil), 1)
	cons.Sinks = []dag.DataSink{library.DFSSink("sink", "/out/nl")}
	d.Connect(prod, cons, library.OrderedEdge(library.OrderedPartitionedConfig{}))

	s := NewSession(plat, Config{Name: "t"})
	defer s.Close()
	h, err := s.Submit(d)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until a producer output is registered, then kill its node.
	var victim string
	deadline := time.Now().Add(5 * time.Second)
	for victim == "" && time.Now().Before(deadline) {
		for task := 0; task < 2; task++ {
			id := shuffle.OutputID{DAG: h.ID(), Vertex: "producer", Name: "consumer", Task: task, Attempt: 0}
			if node, ok := plat.Shuffle.Node(id); ok {
				victim = node
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	if victim == "" {
		t.Fatal("producer output never appeared")
	}
	plat.FailNode(cluster.NodeID(victim))

	res := h.Wait()
	if res.Err != nil || res.Status != DAGSucceeded {
		t.Fatalf("%v %v", res.Status, res.Err)
	}
	if res.Counters.Get("TASKS_REEXECUTED") == 0 {
		t.Fatal("no proactive re-execution after node loss")
	}
	counts := readCounts(t, plat, "/out/nl")
	if counts["k"] != 2 {
		t.Fatalf("output = %v", counts)
	}
}

// failUntilEnabled fails until the package flag is flipped — simulates a
// transient environmental fault fixed before AM recovery.
var recoveryEnabled atomic.Bool

type failUntilEnabled struct{ ctx *runtime.Context }

func (p *failUntilEnabled) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *failUntilEnabled) Run(in map[string]runtime.Input, out map[string]runtime.Output) error {
	if !recoveryEnabled.Load() {
		return fmt.Errorf("environment down")
	}
	r, err := in["stage1"].Reader()
	if err != nil {
		return err
	}
	g := r.(runtime.GroupedKVReader)
	w, err := out["sink"].Writer()
	if err != nil {
		return err
	}
	kw := w.(runtime.KVWriter)
	for g.Next() {
		if err := kw.Write(g.Key(), []byte(strconv.Itoa(len(g.Values())))); err != nil {
			return err
		}
	}
	return g.Err()
}
func (p *failUntilEnabled) Close() error { return nil }

// TestAMRecoveryFromCheckpoint: a DAG whose consumer fails after its
// producer vertex completed is recovered by a second AM from the
// checkpoint, re-running only what the checkpoint does not hold. Under
// slow-start the consumer may launch — and fail the DAG — before the
// producer vertex completes and is checkpointed; that ordering is legal,
// and recovery must then re-run the producer too. Either way the output
// is exactly right.
func TestAMRecoveryFromCheckpoint(t *testing.T) {
	runtime.RegisterProcessor("amtest.emit4", func() runtime.Processor { return &emitProducer{} })
	runtime.RegisterProcessor("amtest.failgate", func() runtime.Processor { return &failUntilEnabled{} })
	recoveryEnabled.Store(false)
	plat := newTestPlatform(3)
	defer plat.Stop()

	build := func() *dag.DAG {
		d := dag.New("recover-me")
		prod := d.AddVertex("stage1", plugin.Desc("amtest.emit4", nil), 2)
		cons := d.AddVertex("stage2", plugin.Desc("amtest.failgate", nil), 1)
		cons.Sinks = []dag.DataSink{library.DFSSink("sink", "/out/rec")}
		// stage1's output must survive the first AM: emitProducer writes
		// to the edge named "consumer"; rename target vertex accordingly.
		d.Connect(prod, cons, library.OrderedEdge(library.OrderedPartitionedConfig{}))
		return d
	}
	cfg := Config{Name: "am1", CheckpointPath: "/_cp", MaxTaskAttempts: 1}

	// First AM: stage2 fails → DAG failed. The checkpoint holds stage1
	// exactly when stage1 completed first: the AM checkpoints on the
	// vertex completion it counts.
	s1 := NewSession(plat, cfg)
	res, err := s1.Run(build())
	s1.Close()
	if err == nil || res.Status != DAGFailed {
		t.Fatalf("first run: %v %v", res.Status, err)
	}
	checkpointed := res.Counters.Get("VERTICES_SUCCEEDED")

	// Second AM ("restarted on another node"): recovers stage1 when it was
	// checkpointed and re-runs the rest — stage2 (one task), plus stage1's
	// two when it was not.
	recoveryEnabled.Store(true)
	cfg.Name = "am2"
	s2 := NewSession(plat, cfg)
	defer s2.Close()
	h, err := s2.Recover(build())
	if err != nil {
		t.Fatal(err)
	}
	res2 := h.Wait()
	if res2.Err != nil || res2.Status != DAGSucceeded {
		t.Fatalf("recovered run: %v %v", res2.Status, res2.Err)
	}
	if got := res2.Counters.Get("VERTICES_RECOVERED"); got != checkpointed {
		t.Fatalf("VERTICES_RECOVERED = %d, checkpointed %d", got, checkpointed)
	}
	want := int64(1)
	if checkpointed == 0 {
		want = 3
	}
	if got := res2.Counters.Get("TASKS_SUCCEEDED"); got != want {
		t.Fatalf("recovered run executed %d tasks, want %d (%d vertices checkpointed)", got, want, checkpointed)
	}
	counts := readCounts(t, plat, "/out/rec")
	if counts["k"] != 2 {
		t.Fatalf("output = %v", counts)
	}
}

// TestPrewarmedSessionHasIdleContainers: pre-warmed containers are the
// session's floor. On a fake clock advanced past ContainerIdleRelease, the
// idle reaper keeps all three, and a DAG submitted afterwards reuses them.
func TestPrewarmedSessionHasIdleContainers(t *testing.T) {
	plat := newTestPlatform(4)
	defer plat.Stop()
	var fake atomic.Int64 // nanoseconds since the Unix epoch
	fake.Store(time.Unix(1000, 0).UnixNano())
	s := NewSession(plat, Config{
		Name:                 "warm",
		PrewarmContainers:    3,
		ContainerIdleRelease: time.Second,
		Clock:                func() time.Time { return time.Unix(0, fake.Load()) },
	})
	defer s.Close()
	idle := func() int {
		s.sched.mu.Lock()
		defer s.sched.mu.Unlock()
		return len(s.sched.idle)
	}
	// Allocation is asynchronous: wait until the scheduler has parked all
	// three pre-warmed containers in its idle pool.
	for deadline := time.Now().Add(5 * time.Second); idle() < 3; goruntime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 3 prewarmed containers idle", idle())
		}
	}
	fake.Add(int64(2 * time.Second))
	s.sched.reapIdle()
	if n, held := idle(), s.app.HeldContainers(); n != 3 || held != 3 {
		t.Fatalf("after the idle timeout: %d idle, %d held; want the 3 prewarmed", n, held)
	}
	// A DAG submitted now should reuse the warm containers.
	writeLines(t, plat, "/in/warm", []string{"a b a"})
	d := wordCountDAG("wc", "/in/warm", "/out/warm", 1)
	if res, err := s.Run(d); err != nil || res.Status != DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	if _, reused := s.SchedulerStats(); reused == 0 {
		t.Fatal("prewarmed containers were not reused")
	}
}

func TestKillDAG(t *testing.T) {
	runtime.RegisterProcessor("amtest.emit", func() runtime.Processor { return &emitProducer{} })
	runtime.RegisterProcessor("amtest.sleepy", func() runtime.Processor { return &slowReduce{} })
	plat := newTestPlatform(2)
	defer plat.Stop()
	d := dag.New("killme")
	prod := d.AddVertex("producer", plugin.Desc("amtest.emit", nil), 1)
	cons := d.AddVertex("consumer", plugin.Desc("amtest.sleepy", nil), 1)
	d.Connect(prod, cons, library.OrderedEdge(library.OrderedPartitionedConfig{}))
	s := NewSession(plat, Config{Name: "t"})
	defer s.Close()
	h, err := s.Submit(d)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	h.Kill("test")
	res := h.Wait()
	if res.Status != DAGKilled {
		t.Fatalf("status = %v", res.Status)
	}
	// All resources must be returned eventually.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && s.app.HeldContainers() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// TestTransientShuffleErrorsAreAbsorbed runs a DAG on a network that
// randomly fails fetches: the built-in inputs retry with backoff (§4.3)
// and the DAG still completes correctly.
func TestTransientShuffleErrorsAreAbsorbed(t *testing.T) {
	cfg := platform.Fast(4)
	cfg.Chaos = chaos.New(99, chaos.Spec{TransientFetchProb: 0.3})
	plat := platform.New(cfg)
	defer plat.Stop()
	writeLines(t, plat, "/in/flaky-net", []string{"x y x z y x"})
	d := wordCountDAG("wc-net", "/in/flaky-net", "/out/net", 3)
	res, err := RunDAG(plat, Config{Name: "t"}, d)
	if err != nil || res.Status != DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	counts := readCounts(t, plat, "/out/net")
	if counts["x"] != 3 || counts["y"] != 2 || counts["z"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestSessionSurvivesFailedDAG: one failing DAG must not poison the
// session for subsequent DAGs (Figure 7's multi-DAG sessions).
func TestSessionSurvivesFailedDAG(t *testing.T) {
	runtime.RegisterProcessor("amtest.alwaysfail2", func() runtime.Processor { return alwaysFail{} })
	plat := newTestPlatform(3)
	defer plat.Stop()
	s := NewSession(plat, Config{Name: "resilient", MaxTaskAttempts: 1})
	defer s.Close()

	bad := dag.New("bad")
	bad.AddVertex("v", plugin.Desc("amtest.alwaysfail2", nil), 1)
	if res, err := s.Run(bad); err == nil || res.Status != DAGFailed {
		t.Fatalf("bad dag: %v %v", res.Status, err)
	}

	writeLines(t, plat, "/in/after", []string{"ok ok"})
	good := wordCountDAG("wc-after", "/in/after", "/out/after", 1)
	if res, err := s.Run(good); err != nil || res.Status != DAGSucceeded {
		t.Fatalf("good dag after failure: %v %v", res.Status, err)
	}
	if readCounts(t, plat, "/out/after")["ok"] != 2 {
		t.Fatal("wrong output")
	}
}

// garbageSplits is an initializer whose per-task payloads are not split
// assignments.
type garbageSplits struct{}

func (garbageSplits) Run(*runtime.InitializerContext) (*runtime.InitializerResult, error) {
	return &runtime.InitializerResult{
		Parallelism:    2,
		PerTaskPayload: [][]byte{[]byte("not a split assignment"), nil},
	}, nil
}

// TestCorruptSplitAssignmentFailsAttempt: a root input whose assignment
// does not decode fails its attempts with the decode error, at once. Its
// handler's error is dropped by the task runner, and Reader used to wait
// for the assignment until something killed the attempt — here nothing
// would have, and the DAG hung.
func TestCorruptSplitAssignmentFailsAttempt(t *testing.T) {
	runtime.RegisterInitializer("amtest.garbage_splits", func() runtime.Initializer { return garbageSplits{} })
	plat := newTestPlatform(2)
	defer plat.Stop()
	d := wordCountDAG("badsplits", "/in/none", "/out/badsplits", 1)
	d.Vertex("tokenizer").Sources[0].Initializer = plugin.Desc("amtest.garbage_splits", nil)

	type outcome struct {
		res DAGResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunDAG(plat, Config{Name: "t"}, d)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.res.Status != DAGFailed || o.err == nil {
			t.Fatalf("status %v err %v, want DAGFailed", o.res.Status, o.err)
		}
		for _, want := range []string{"lines", "split assignment", "decode"} {
			if !strings.Contains(o.err.Error(), want) {
				t.Fatalf("diagnostics %q do not mention %q", o.err, want)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("attempts are waiting for a split assignment that failed to decode")
	}
}

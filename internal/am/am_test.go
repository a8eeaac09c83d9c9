package am

import (
	"fmt"
	goruntime "runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/runtime"
	"tez/internal/shuffle"
)

func init() {
	// Word count: map lines to (word, 1), reduce to (word, count).
	library.RegisterMapFunc("amtest.tokenize", func(_, value []byte, out runtime.KVWriter) error {
		for _, w := range strings.Fields(string(value)) {
			if err := out.Write([]byte(w), []byte("1")); err != nil {
				return err
			}
		}
		return nil
	})
	library.RegisterReduceFunc("amtest.sum", func(key []byte, values [][]byte, out runtime.KVWriter) error {
		total := 0
		for _, v := range values {
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return err
			}
			total += n
		}
		return out.Write(key, []byte(strconv.Itoa(total)))
	})
}

func newTestPlatform(nodes int) *platform.Platform {
	return platform.New(platform.Fast(nodes))
}

// writeLines stores text lines as a record file ("" keys).
func writeLines(t *testing.T, plat *platform.Platform, path string, lines []string) {
	t.Helper()
	wr, err := library.CreateRecordFile(plat.FS, path, plat.FS.LiveNodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if err := wr.Write(nil, []byte(l)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
}

// wordCountDAG builds the canonical Figure 4 DAG.
func wordCountDAG(name, in, out string, reducers int) *dag.DAG {
	d := dag.New(name)
	tok := d.AddVertex("tokenizer", plugin.Desc(library.MapProcessorName, library.FuncConfig{Func: "amtest.tokenize"}), -1)
	tok.Sources = []dag.DataSource{library.DFSSource("lines", []string{in}, 4*1024)}
	sum := d.AddVertex("summation", plugin.Desc(library.ReduceProcessorName, library.FuncConfig{Func: "amtest.sum"}), reducers)
	sum.Sinks = []dag.DataSink{library.DFSSink("counts", out)}
	d.Connect(tok, sum, library.OrderedEdge(library.OrderedPartitionedConfig{}))
	return d
}

// readCounts reads committed word counts from the sink directory.
func readCounts(t *testing.T, plat *platform.Platform, out string) map[string]int {
	t.Helper()
	res := map[string]int{}
	for _, f := range plat.FS.List(out + "/part-") {
		data, err := plat.FS.ReadFile(f, "")
		if err != nil {
			t.Fatal(err)
		}
		r := library.NewPaddedReader(data)
		for r.Next() {
			n, err := strconv.Atoi(string(r.Value()))
			if err != nil {
				t.Fatal(err)
			}
			res[string(r.Key())] += n
		}
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	}
	return res
}

func TestWordCountEndToEnd(t *testing.T) {
	plat := newTestPlatform(4)
	defer plat.Stop()
	var lines []string
	for i := 0; i < 100; i++ {
		lines = append(lines, "the quick brown fox", "jumps over the lazy dog", "the end")
	}
	writeLines(t, plat, "/in/text", lines)
	d := wordCountDAG("wc", "/in/text", "/out/wc", 2)
	res, err := RunDAG(plat, Config{Name: "t"}, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != DAGSucceeded {
		t.Fatalf("status = %v", res.Status)
	}
	counts := readCounts(t, plat, "/out/wc")
	if counts["the"] != 300 || counts["fox"] != 100 || counts["dog"] != 100 {
		t.Fatalf("counts = %v", counts)
	}
	if got := len(counts); got != 9 {
		t.Fatalf("distinct words = %d: %v", got, counts)
	}
	if res.Counters.Get("TASKS_SUCCEEDED") < 3 {
		t.Fatalf("counters: %s", res.Counters)
	}
}

func TestSessionReusesContainersAcrossDAGs(t *testing.T) {
	plat := newTestPlatform(4)
	defer plat.Stop()
	writeLines(t, plat, "/in/text", []string{"a b c d e f"})
	s := NewSession(plat, Config{Name: "sess", ContainerIdleRelease: time.Second})
	defer s.Close()
	for i := 0; i < 3; i++ {
		d := wordCountDAG(fmt.Sprintf("wc%d", i), "/in/text", fmt.Sprintf("/out/wc%d", i), 1)
		if res, err := s.Run(d); err != nil || res.Status != DAGSucceeded {
			t.Fatalf("dag %d: %v %v", i, res.Status, err)
		}
	}
	allocated, reused := s.SchedulerStats()
	if reused == 0 {
		t.Fatalf("no container reuse in session (allocated=%d)", allocated)
	}
	if allocated >= reused+allocated && allocated > 6 {
		t.Fatalf("allocated %d containers for 3 tiny DAGs", allocated)
	}
}

func TestDisableContainerReuse(t *testing.T) {
	plat := newTestPlatform(4)
	defer plat.Stop()
	writeLines(t, plat, "/in/text", []string{"a b c d"})
	s := NewSession(plat, Config{Name: "noreuse", DisableContainerReuse: true})
	defer s.Close()
	d := wordCountDAG("wc", "/in/text", "/out/wc", 2)
	if res, err := s.Run(d); err != nil || res.Status != DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	_, reused := s.SchedulerStats()
	if reused != 0 {
		t.Fatalf("reused = %d with reuse disabled", reused)
	}
}

func TestAutoParallelismShrinks(t *testing.T) {
	plat := newTestPlatform(4)
	defer plat.Stop()
	writeLines(t, plat, "/in/text", []string{"x y z x y x"})
	d := wordCountDAG("wc-auto", "/in/text", "/out/auto", 8)
	cfg := Config{Name: "t", DesiredBytesPerReducer: 1 << 20} // tiny data → 1 reducer
	res, err := RunDAG(plat, cfg, d)
	if err != nil || res.Status != DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	if res.Counters.Get("PARALLELISM_RECONFIGURED") == 0 {
		t.Fatal("auto-parallelism did not reconfigure")
	}
	counts := readCounts(t, plat, "/out/auto")
	if counts["x"] != 3 || counts["y"] != 2 || counts["z"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	// Only one reducer should have committed output.
	if got := len(plat.FS.List("/out/auto/part-")); got != 1 {
		t.Fatalf("committed parts = %d", got)
	}
}

func TestAutoParallelismDisabled(t *testing.T) {
	plat := newTestPlatform(4)
	defer plat.Stop()
	writeLines(t, plat, "/in/text", []string{"x y z"})
	d := wordCountDAG("wc-noauto", "/in/text", "/out/noauto", 4)
	cfg := Config{Name: "t", DisableAutoParallelism: true}
	res, err := RunDAG(plat, cfg, d)
	if err != nil || res.Status != DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	if res.Counters.Get("PARALLELISM_RECONFIGURED") != 0 {
		t.Fatal("reconfigured despite disabled auto-parallelism")
	}
	if got := len(plat.FS.List("/out/noauto/part-")); got != 4 {
		t.Fatalf("committed parts = %d, want 4", got)
	}
}

// flakyProcessor fails its first attempt of every task, then succeeds.
type flakyProcessor struct {
	ctx *runtime.Context
}

func (p *flakyProcessor) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *flakyProcessor) Run(in map[string]runtime.Input, out map[string]runtime.Output) error {
	if p.ctx.Meta.Attempt == 0 {
		return fmt.Errorf("injected failure (task %d attempt 0)", p.ctx.Meta.Task)
	}
	w, err := out["sink"].Writer()
	if err != nil {
		return err
	}
	return w.(runtime.KVWriter).Write([]byte(fmt.Sprintf("t%d", p.ctx.Meta.Task)), []byte("ok"))
}
func (p *flakyProcessor) Close() error { return nil }

func TestTaskRetryOnFailure(t *testing.T) {
	runtime.RegisterProcessor("amtest.flaky", func() runtime.Processor { return &flakyProcessor{} })
	plat := newTestPlatform(2)
	defer plat.Stop()
	d := dag.New("flaky")
	v := d.AddVertex("v", plugin.Desc("amtest.flaky", nil), 3)
	v.Sinks = []dag.DataSink{library.DFSSink("sink", "/out/flaky")}
	res, err := RunDAG(plat, Config{Name: "t"}, d)
	if err != nil || res.Status != DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	if res.Counters.Get("ATTEMPTS_FAILED") != 3 {
		t.Fatalf("ATTEMPTS_FAILED = %d", res.Counters.Get("ATTEMPTS_FAILED"))
	}
	if got := len(plat.FS.List("/out/flaky/part-")); got != 3 {
		t.Fatalf("parts = %d", got)
	}
}

// alwaysFail exhausts attempts.
type alwaysFail struct{}

func (alwaysFail) Initialize(*runtime.Context) error { return nil }
func (alwaysFail) Run(map[string]runtime.Input, map[string]runtime.Output) error {
	return fmt.Errorf("permanent failure")
}
func (alwaysFail) Close() error { return nil }

func TestDAGFailsAfterMaxAttempts(t *testing.T) {
	runtime.RegisterProcessor("amtest.alwaysfail", func() runtime.Processor { return alwaysFail{} })
	plat := newTestPlatform(2)
	defer plat.Stop()
	d := dag.New("doomed")
	d.AddVertex("v", plugin.Desc("amtest.alwaysfail", nil), 1)
	res, err := RunDAG(plat, Config{Name: "t", MaxTaskAttempts: 2}, d)
	if err == nil || res.Status != DAGFailed {
		t.Fatalf("status=%v err=%v", res.Status, err)
	}
	if !strings.Contains(err.Error(), "permanent failure") {
		t.Fatalf("err = %v", err)
	}
	if res.Counters.Get("ATTEMPTS_FAILED") != 2 {
		t.Fatalf("ATTEMPTS_FAILED = %d", res.Counters.Get("ATTEMPTS_FAILED"))
	}
}

// sabotageReduce deletes the producer's shuffle data on the consumer's
// first attempt, forcing the InputReadError → producer re-execution path.
type sabotageReduce struct {
	ctx *runtime.Context
}

func (p *sabotageReduce) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *sabotageReduce) Run(in map[string]runtime.Input, out map[string]runtime.Output) error {
	if p.ctx.Meta.Attempt == 0 {
		// Destroy all producer outputs, simulating intermediate data loss.
		p.ctx.Services.Shuffle.Unregister(shuffle.OutputID{
			DAG: p.ctx.Meta.DAG, Vertex: "producer", Name: "consumer", Task: 0, Attempt: 0,
		})
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
func (p *sabotageReduce) Close() error { return nil }

// emitProducer writes a fixed pair to every output.
type emitProducer struct{ ctx *runtime.Context }

func (p *emitProducer) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *emitProducer) Run(_ map[string]runtime.Input, out map[string]runtime.Output) error {
	for _, o := range out {
		w, err := o.Writer()
		if err != nil {
			return err
		}
		if err := w.(runtime.KVWriter).Write([]byte("k"), []byte("v")); err != nil {
			return err
		}
	}
	return nil
}
func (p *emitProducer) Close() error { return nil }

func TestInputReadErrorTriggersProducerReexecution(t *testing.T) {
	runtime.RegisterProcessor("amtest.emit", func() runtime.Processor { return &emitProducer{} })
	runtime.RegisterProcessor("amtest.sabotage", func() runtime.Processor { return &sabotageReduce{} })
	plat := newTestPlatform(3)
	defer plat.Stop()
	d := dag.New("lossy")
	prod := d.AddVertex("producer", plugin.Desc("amtest.emit", nil), 1)
	cons := d.AddVertex("consumer", plugin.Desc("amtest.sabotage", nil), 1)
	cons.Sinks = []dag.DataSink{library.DFSSink("sink", "/out/lossy")}
	d.Connect(prod, cons, library.OrderedEdge(library.OrderedPartitionedConfig{}))
	res, err := RunDAG(plat, Config{Name: "t"}, d)
	if err != nil || res.Status != DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	if res.Counters.Get("INPUT_READ_ERRORS") == 0 {
		t.Fatal("no input read error observed")
	}
	if res.Counters.Get("TASKS_REEXECUTED") == 0 {
		t.Fatal("producer was not re-executed")
	}
	counts := readCounts(t, plat, "/out/lossy")
	if counts["k"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestWarmSessionDoesNotCollectGoroutines: a container that is reused keeps
// its kill channel open across tasks, so anything a task parks on it must
// also end with the task. The root input's kill-watcher did not: one
// goroutine per map task stayed until the container was released (over
// 10 000 after a hundred Hive queries). Nothing is released here, so the
// count after the eighth DAG must be about the count after the first.
func TestWarmSessionDoesNotCollectGoroutines(t *testing.T) {
	plat := newTestPlatform(4)
	defer plat.Stop()
	lines := make([]string, 4000)
	for i := range lines {
		lines[i] = "the quick brown fox jumps over the lazy dog"
	}
	writeLines(t, plat, "/in/warm", lines)
	sess := NewSession(plat, Config{Name: "warm", ContainerIdleRelease: time.Minute})
	defer sess.Close()
	const dags = 8
	var mapTasks int64
	// settled waits out the goroutines a finished DAG is still winding down
	// and returns the count once two readings a moment apart agree.
	settled := func() int {
		n := goruntime.NumGoroutine()
		for i := 0; i < 200; i++ {
			time.Sleep(5 * time.Millisecond)
			m := goruntime.NumGoroutine()
			if m == n {
				return n
			}
			n = m
		}
		return n
	}
	var first int
	for i := 0; i < dags; i++ {
		res, err := sess.Run(wordCountDAG(fmt.Sprintf("warm%d", i), "/in/warm", fmt.Sprintf("/out/warm%d", i), 2))
		if err != nil || res.Status != DAGSucceeded {
			t.Fatalf("dag %d: %v %v", i, res.Status, err)
		}
		mapTasks = res.Counters.Get("TASKS_SUCCEEDED") - 2
		if i == 0 {
			first = settled()
		}
	}
	if mapTasks < 20 {
		t.Fatalf("%d map tasks per DAG: too few for a leak of one goroutine each to show", mapTasks)
	}
	if last := settled(); last > first+10 {
		t.Fatalf("%d goroutines after the first DAG, %d after %d DAGs of %d root-input tasks each", first, last, dags, mapTasks)
	}
}

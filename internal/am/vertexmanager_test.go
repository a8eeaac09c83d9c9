package am

import (
	"slices"
	"strings"
	"testing"

	"tez/internal/dag"
	"tez/internal/event"
	"tez/internal/library"
	"tez/internal/plugin"
	"tez/internal/runtime"
)

// fakeVMContext drives vertex managers without a live DAG.
type fakeVMContext struct {
	cfg         Config
	parallelism int
	ranges      [][]int // SetPartitionRanges calls
	scheduled   map[int]bool

	sources   []string
	srcPar    map[string]int
	srcDone   map[string]int
	srcMove   map[string]dag.MovementType
	srcSched  map[string]dag.SchedulingType
	taskDone  map[string]map[int]bool
	outEdge   map[string][]byte
	vmPayload []byte
	failed    []error
}

func newFakeVMContext(par int) *fakeVMContext {
	return &fakeVMContext{
		cfg:         Config{}.withDefaults(),
		parallelism: par,
		scheduled:   map[int]bool{},
		srcPar:      map[string]int{},
		srcDone:     map[string]int{},
		srcMove:     map[string]dag.MovementType{},
		srcSched:    map[string]dag.SchedulingType{},
		taskDone:    map[string]map[int]bool{},
		outEdge:     map[string][]byte{},
	}
}

func (c *fakeVMContext) addSource(name string, par int, m dag.MovementType) {
	c.sources = append(c.sources, name)
	c.srcPar[name] = par
	c.srcMove[name] = m
	c.taskDone[name] = map[int]bool{}
}

func (c *fakeVMContext) complete(name string, task int) {
	c.taskDone[name][task] = true
	c.srcDone[name]++
}

func (c *fakeVMContext) VertexName() string    { return "v" }
func (c *fakeVMContext) Payload() []byte       { return c.vmPayload }
func (c *fakeVMContext) Parallelism() int      { return c.parallelism }
func (c *fakeVMContext) SessionConfig() Config { return c.cfg }
func (c *fakeVMContext) SetPartitionRanges(starts []int) error {
	c.parallelism = len(starts)
	c.ranges = append(c.ranges, starts)
	return nil
}
func (c *fakeVMContext) ScheduleTasks(tasks []int) {
	for _, t := range tasks {
		c.scheduled[t] = true
	}
}
func (c *fakeVMContext) SourceVertices() []string { return c.sources }
func (c *fakeVMContext) SourceVertexParallelism(name string) int {
	if p, ok := c.srcPar[name]; ok {
		return p
	}
	return -1
}
func (c *fakeVMContext) SourceTasksCompleted(name string) int { return c.srcDone[name] }
func (c *fakeVMContext) SourceMovement(name string) dag.MovementType {
	return c.srcMove[name]
}
func (c *fakeVMContext) SourceScheduling(name string) dag.SchedulingType {
	return c.srcSched[name]
}
func (c *fakeVMContext) SourceTaskCompleted(name string, task int) bool {
	return c.taskDone[name][task]
}
func (c *fakeVMContext) SetOutEdgePayload(dest string, payload []byte) error {
	c.outEdge[dest] = payload
	return nil
}

func (c *fakeVMContext) Fail(err error) { c.failed = append(c.failed, err) }

func stats(sizes ...int64) []byte {
	return plugin.MustEncode(library.VMStats{PartitionSizes: sizes})
}

func TestSVMSlowStartProgression(t *testing.T) {
	ctx := newFakeVMContext(8)
	ctx.cfg.SlowStartMin, ctx.cfg.SlowStartMax = 0.25, 0.75
	ctx.cfg.DisableAutoParallelism = true
	ctx.addSource("map", 8, dag.ScatterGather)
	m := &ShuffleVertexManager{}
	if err := m.Initialize(ctx); err != nil {
		t.Fatal(err)
	}
	m.OnVertexStarted()
	if len(ctx.scheduled) != 0 {
		t.Fatalf("scheduled %d tasks before slow-start threshold", len(ctx.scheduled))
	}
	// 2/8 = 25%: the first consumer may start.
	ctx.complete("map", 0)
	m.OnSourceTaskCompleted("map", 0)
	ctx.complete("map", 1)
	m.OnSourceTaskCompleted("map", 1)
	if got := len(ctx.scheduled); got < 1 || got == 8 {
		t.Fatalf("at 25%%: scheduled %d", got)
	}
	// 6/8 = 75%: everything may run.
	for i := 2; i < 6; i++ {
		ctx.complete("map", i)
		m.OnSourceTaskCompleted("map", i)
	}
	if got := len(ctx.scheduled); got != 8 {
		t.Fatalf("at 75%%: scheduled %d, want all 8", got)
	}
}

func TestSVMAutoParallelismEstimate(t *testing.T) {
	ctx := newFakeVMContext(8)
	ctx.cfg.SlowStartMin, ctx.cfg.SlowStartMax = 0.5, 0.5
	ctx.addSource("map", 4, dag.ScatterGather)
	m := &ShuffleVertexManager{}
	if err := m.Initialize(ctx); err != nil {
		t.Fatal(err)
	}
	m.OnVertexStarted()
	// Two of four producers report half a reducer's bytes each, spread
	// evenly over the 8 partitions → extrapolated total two reducers'
	// worth → 2 reducers, four partitions each.
	const half = desiredBytesPerReducer / 2
	even := make([]int64, 8)
	for p := range even {
		even[p] = half / 8
	}
	for i := 0; i < 2; i++ {
		m.OnVertexManagerEvent(event.VertexManagerEvent{SrcVertex: "map", SrcTask: i, Payload: stats(even...)})
		ctx.complete("map", i)
		m.OnSourceTaskCompleted("map", i)
	}
	if len(ctx.ranges) != 1 || !slices.Equal(ctx.ranges[0], []int{0, 4}) {
		t.Fatalf("SetPartitionRanges calls = %v, want [[0 4]]", ctx.ranges)
	}
	// Duplicate stats from a speculative attempt must not double-count.
	m.OnVertexManagerEvent(event.VertexManagerEvent{SrcVertex: "map", SrcTask: 0, Payload: stats(9999)})
	var total int64
	for _, s := range m.partSizes {
		total += s
	}
	if total != 2*half || len(ctx.failed) != 0 {
		t.Fatalf("summed %d bytes after duplicate (failures %v)", total, ctx.failed)
	}
}

// A statistics payload that does not decode must not be skipped: with no
// bytes counted, ShuffleVertexManager's estimate is zero and the vertex
// shrinks to one reducer without a failure anywhere (what a look-alike
// struct decoded through gob did when VMStats changed encoding). Nor may
// one that decodes to the wrong number of partitions: summing it would
// index past the consumer's partitions and panic the session's loop,
// which every DAG of the session runs on. The manager fails the DAG
// instead, naming the sender.
func TestVMStatsDecodeFailureIsVisible(t *testing.T) {
	lookAlike := plugin.MustEncode(struct{ PartitionSizes []int64 }{[]int64{250, 250}}) // gob, not VMStats' codec
	truncated := stats(250, 250)
	truncated = truncated[:len(truncated)-1]
	for name, payload := range map[string][]byte{
		"gob": lookAlike, "truncated": truncated, "empty": nil,
		"short": stats(250, 250), "long": stats(make([]int64, 9)...),
	} {
		ctx := newFakeVMContext(8)
		ctx.cfg.SlowStartMin, ctx.cfg.SlowStartMax = 0.5, 0.5
		ctx.addSource("map", 2, dag.ScatterGather)
		m := &ShuffleVertexManager{}
		if err := m.Initialize(ctx); err != nil {
			t.Fatal(err)
		}
		m.OnVertexStarted()
		m.OnVertexManagerEvent(event.VertexManagerEvent{SrcVertex: "map", SrcTask: 0, Payload: payload})
		if len(ctx.failed) != 1 || !strings.Contains(ctx.failed[0].Error(), "map/0") {
			t.Fatalf("%s payload: Fail calls = %v, want one naming map/0", name, ctx.failed)
		}
		if len(ctx.ranges) != 0 || len(ctx.scheduled) != 0 {
			t.Fatalf("%s payload: acted on statistics it could not read (ranges %v, scheduled %v)",
				name, ctx.ranges, ctx.scheduled)
		}
	}
}

// badStatsProducer announces statistics no manager can decode.
type badStatsProducer struct{ ctx *runtime.Context }

func (p *badStatsProducer) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *badStatsProducer) Run(map[string]runtime.Input, map[string]runtime.Output) error {
	p.ctx.Emit(event.VertexManagerEvent{
		TargetVertex: "consumer", SrcVertex: p.ctx.Meta.Vertex, SrcTask: p.ctx.Meta.Task,
		Payload: []byte("not statistics"),
	})
	return nil
}
func (p *badStatsProducer) Close() error { return nil }

// End to end: the DAG fails, with the manager, the sender and the decode
// error in its diagnostics, rather than succeeding with one reducer.
func TestCorruptVMStatsFailsDAG(t *testing.T) {
	runtime.RegisterProcessor("amtest.bad_stats", func() runtime.Processor { return &badStatsProducer{} })
	plat := newTestPlatform(2)
	defer plat.Stop()
	d := dag.New("badstats")
	prod := d.AddVertex("producer", plugin.Desc("amtest.bad_stats", nil), 2)
	cons := d.AddVertex("consumer", plugin.Desc("amdl.sleep", nil), 4)
	d.Connect(prod, cons, library.OrderedEdge(library.OrderedPartitionedConfig{}))
	res, err := RunDAG(plat, Config{Name: "t"}, d)
	if err == nil && res.Err != nil {
		err = res.Err
	}
	if res.Status != DAGFailed || err == nil {
		t.Fatalf("status %v err %v, want DAGFailed", res.Status, err)
	}
	for _, want := range []string{"vertex manager of consumer", "producer/", "decode"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("diagnostics %q do not mention %q", err, want)
		}
	}
}

func TestSVMBroadcastGate(t *testing.T) {
	ctx := newFakeVMContext(2)
	ctx.cfg.DisableAutoParallelism = true
	ctx.addSource("dim", 2, dag.Broadcast)
	m := &ShuffleVertexManager{}
	if err := m.Initialize(ctx); err != nil {
		t.Fatal(err)
	}
	m.OnVertexStarted()
	if len(ctx.scheduled) != 0 {
		t.Fatal("scheduled before broadcast source completed")
	}
	ctx.complete("dim", 0)
	m.OnSourceTaskCompleted("dim", 0)
	if len(ctx.scheduled) != 0 {
		t.Fatal("scheduled with broadcast source half done")
	}
	ctx.complete("dim", 1)
	m.OnSourceTaskCompleted("dim", 1)
	if len(ctx.scheduled) != 2 {
		t.Fatalf("scheduled %d after broadcast completed", len(ctx.scheduled))
	}
}

func TestSVMOneToOnePerTaskGating(t *testing.T) {
	ctx := newFakeVMContext(3)
	ctx.cfg.DisableAutoParallelism = true
	ctx.addSource("up", 3, dag.OneToOne)
	m := &ShuffleVertexManager{}
	if err := m.Initialize(ctx); err != nil {
		t.Fatal(err)
	}
	m.OnVertexStarted()
	if len(ctx.scheduled) != 0 {
		t.Fatal("1-1 consumer scheduled before any source task")
	}
	ctx.complete("up", 1)
	m.OnSourceTaskCompleted("up", 1)
	if !ctx.scheduled[1] || ctx.scheduled[0] || ctx.scheduled[2] {
		t.Fatalf("scheduled = %v, want only task 1", ctx.scheduled)
	}
}

func TestSVMRootVertexSchedulesImmediately(t *testing.T) {
	ctx := newFakeVMContext(4)
	m := &ShuffleVertexManager{}
	if err := m.Initialize(ctx); err != nil {
		t.Fatal(err)
	}
	m.OnVertexStarted()
	if len(ctx.scheduled) != 4 {
		t.Fatalf("root vertex scheduled %d of 4", len(ctx.scheduled))
	}
}

func TestImmediateStartVM(t *testing.T) {
	ctx := newFakeVMContext(5)
	ctx.addSource("up", 3, dag.ScatterGather) // ignored by this manager
	m := &ImmediateStartVertexManager{}
	if err := m.Initialize(ctx); err != nil {
		t.Fatal(err)
	}
	m.OnVertexStarted()
	if len(ctx.scheduled) != 5 {
		t.Fatalf("scheduled %d of 5", len(ctx.scheduled))
	}
}

func TestNewVertexManagerDefaultsAndRegistry(t *testing.T) {
	m, err := newVertexManager(plugin.Descriptor{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*ShuffleVertexManager); !ok {
		t.Fatalf("default manager = %T", m)
	}
	if _, err := newVertexManager(plugin.Descriptor{Name: "am.unknown"}); err == nil {
		t.Fatal("unknown manager accepted")
	}
	m2, err := newVertexManager(plugin.Descriptor{Name: ImmediateStartVertexManagerName})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.(*ImmediateStartVertexManager); !ok {
		t.Fatalf("named manager = %T", m2)
	}
}

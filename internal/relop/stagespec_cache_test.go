package relop

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"tez/internal/am"
	"tez/internal/cluster"
	"tez/internal/dag"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/row"
	"tez/internal/runtime"
)

// specSpy is the stage processor plus a witness: after each task it notes
// which *StageSpec the task ran on and whether that program still equals a
// fresh decode of the vertex's payload.
type specSpy struct {
	stageProcessor
	log *spyLog
}

type spyLog struct {
	mu      sync.Mutex
	tasks   map[string]int                // vertex -> tasks run
	specs   map[string]map[*StageSpec]int // vertex -> program -> tasks that ran on it
	changed []string
}

func (s *specSpy) Run(in map[string]runtime.Input, out map[string]runtime.Output) error {
	err := s.stageProcessor.Run(in, out)
	var fresh StageSpec
	if derr := plugin.Decode(s.ctx.Payload, &fresh); derr != nil {
		return derr
	}
	v := s.ctx.Meta.Vertex
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	s.log.tasks[v]++
	if s.log.specs[v] == nil {
		s.log.specs[v] = map[*StageSpec]int{}
	}
	s.log.specs[v][s.spec]++
	if !reflect.DeepEqual(*s.spec, fresh) {
		s.log.changed = append(s.log.changed, fmt.Sprintf("%s task %d", v, s.ctx.Meta.Task))
	}
	return err
}

// registryLen reports how many entries the container's registry holds.
type registryLen struct {
	ctx *runtime.Context
	max *int
	mu  *sync.Mutex
}

func (p *registryLen) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *registryLen) Run(map[string]runtime.Input, map[string]runtime.Output) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := p.ctx.Services.Registry.Len(); n > *p.max {
		*p.max = n
	}
	return nil
}
func (p *registryLen) Close() error { return nil }

// TestStageSpecSharedReadOnly: the tasks of a vertex that run in one
// container run on one decoded StageSpec, taken from the container's
// object registry, and nothing they do writes through it — after every
// task it still deep-equals a fresh decode of the payload (and under
// -race a write would be reported against the next task's reads). The
// plan has every operator kind: a filter and a projection feeding a
// broadcast hash join, a grouped aggregation, and an ordered limit. When
// the DAG is done the entries are gone: each was swept with its vertex.
func TestStageSpecSharedReadOnly(t *testing.T) {
	log := &spyLog{tasks: map[string]int{}, specs: map[string]map[*StageSpec]int{}}
	runtime.RegisterProcessor("relop.test.spec_spy", func() runtime.Processor { return &specSpy{log: log} })
	var maxLen int
	var lenMu sync.Mutex
	runtime.RegisterProcessor("relop.test.registry_len", func() runtime.Processor {
		return &registryLen{max: &maxLen, mu: &lenMu}
	})

	// One node with room for two containers, kept for the whole session:
	// twelve scan tasks must share them.
	cfg := platform.Fast(1)
	cfg.Cluster.NodeResource = cluster.Resource{MemoryMB: 2048, VCores: 2}
	plat := platform.New(cfg)
	defer plat.Stop()
	h := &harness{plat: plat, t: t}
	var big []row.Row
	for i := int64(0); i < 600; i++ {
		big = append(big, row.Row{row.Int(i % 5), row.Int(i)})
	}
	facts := h.table("facts", row.NewSchema("k:int", "v:int"), 12, big)
	dims := h.table("dims", row.NewSchema("k:int", "w:int"), 1, intRows(
		[]int64{0, 1}, []int64{1, 10}, []int64{2, 100}, []int64{3, 1000}))

	scan := Scan(facts)
	filtered := FilterNode(scan, Cmp(">=", Col(1), LitInt(100)))
	proj := ProjectNode(filtered, []*Expr{Col(0), Arith("+", Col(1), LitInt(1))}, []string{"k", "v1"}, []row.Kind{row.KindInt, row.KindInt})
	join := JoinNode(proj, Scan(dims), []*Expr{Col(0)}, []*Expr{Col(0)}, true)
	agg := AggNode(join, []*Expr{Col(0)}, []string{"k"}, []AggDef{
		{Func: "count", Name: "n"}, {Func: "max", Arg: Col(3), Name: "w"},
	})
	sorted := SortNode(agg, []*Expr{Col(0)}, []bool{true}, 3)
	// One scan task per block: twelve shards are twelve tasks.
	d, err := NewCompiler(Config{SplitSize: plat.FS.BlockSize()}).CompileTez("shared", []*Node{StoreNode(sorted, "/out/shared")})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range d.Vertices {
		if v.Processor.Name == StageProcessorName {
			v.Processor.Name = "relop.test.spec_spy"
		}
	}

	sess := am.NewSession(plat, am.Config{Name: "shared", ContainerIdleRelease: 10 * time.Second})
	defer sess.Close()
	before := plugin.GobDecodes()
	res, err := sess.Run(d)
	if err != nil || res.Status != am.DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	h.checkStored("/out/shared", intRows([]int64{3, 100, 1000}, []int64{2, 100, 100}, []int64{1, 100, 10}), true)

	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.changed) > 0 {
		t.Fatalf("a shared StageSpec no longer equals its payload after %v", log.changed)
	}
	containers, _ := sess.SchedulerStats()
	shared := false
	for v, n := range log.tasks {
		if len(log.specs[v]) > containers {
			t.Errorf("vertex %s: %d decoded programs in %d containers", v, len(log.specs[v]), containers)
		}
		for _, ran := range log.specs[v] {
			shared = shared || ran > 1
		}
		t.Logf("vertex %s: %d tasks on %d decoded programs", v, n, len(log.specs[v]))
	}
	if !shared {
		t.Fatal("no two tasks shared a decoded StageSpec — the test proved nothing")
	}
	// The spy's own per-task decode is the test's, not the engine's.
	var tasks int
	for _, n := range log.tasks {
		tasks += n
	}
	if engine := int(plugin.GobDecodes()-before) - tasks; engine > containers*len(log.tasks) {
		t.Errorf("%d gob decodes by the engine for %d vertices in %d containers", engine, len(log.tasks), containers)
	}

	// Lifetime: both containers are still held, and hold nothing of the
	// finished DAG — stage programs went with their vertices, the join's
	// hash table with the DAG.
	probe := dag.New("probe")
	probe.AddVertex("probe", plugin.Desc("relop.test.registry_len", nil), 4)
	if res, err := sess.Run(probe); err != nil || res.Status != am.DAGSucceeded {
		t.Fatalf("probe: %v %v", res.Status, err)
	}
	if maxLen != 0 {
		t.Fatalf("a container's registry still holds %d entries after the DAG that made them", maxLen)
	}
	if after, _ := sess.SchedulerStats(); after != containers {
		t.Fatalf("probe ran in new containers (%d → %d) — it looked at empty registries", containers, after)
	}
}

// loadStageSpec's cache follows the registry's vertex lifetime: one decode
// per (container, DAG, vertex); another DAG's vertex of the same name gets
// its own program, never the cached one; a vertex sweep retires the entry;
// and without a registry every task decodes.
func TestLoadStageSpecLifetime(t *testing.T) {
	specA := StageSpec{Inputs: []StageInput{{Name: "a", Mode: InSource}}}
	specB := StageSpec{Inputs: []StageInput{{Name: "b", Mode: InGrouped}}}
	reg := runtime.NewObjectRegistry()
	ctx := func(dagID string, spec StageSpec, reg *runtime.ObjectRegistry) *runtime.Context {
		return &runtime.Context{
			Meta:     runtime.Meta{DAG: dagID, Vertex: "scan"},
			Payload:  plugin.MustEncode(spec),
			Services: runtime.Services{Registry: reg},
		}
	}
	load := func(c *runtime.Context) *StageSpec {
		t.Helper()
		s, err := loadStageSpec(c)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before := plugin.GobDecodes()
	a1, a2 := load(ctx("d1", specA, reg)), load(ctx("d1", specA, reg))
	if a1 != a2 || plugin.GobDecodes()-before != 1 {
		t.Fatalf("two tasks of one vertex: programs %p and %p, %d decodes", a1, a2, plugin.GobDecodes()-before)
	}
	if b := load(ctx("d2", specB, reg)); b == a1 || b.Inputs[0].Name != "b" {
		t.Fatalf("DAG d2 was served %+v", b)
	}
	if reg.Len() != 2 {
		t.Fatalf("registry holds %d entries, want one per (DAG, vertex)", reg.Len())
	}
	reg.SweepVertex("d1", "scan")
	reg.SweepVertex("d2", "scan")
	if reg.Len() != 0 {
		t.Fatalf("%d entries survived their vertices' sweeps", reg.Len())
	}
	if a3 := load(ctx("d1", specA, reg)); a3 == a1 {
		t.Fatal("swept program served again")
	}
	if n1, n2 := load(ctx("d1", specA, nil)), load(ctx("d1", specA, nil)); n1 == n2 {
		t.Fatal("no registry, yet two tasks share a program")
	}
	if _, err := loadStageSpec(&runtime.Context{Payload: []byte("junk"), Services: runtime.Services{Registry: reg}}); err == nil {
		t.Fatal("junk payload decoded")
	}
}

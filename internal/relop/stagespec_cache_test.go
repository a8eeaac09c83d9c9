package relop

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tez/internal/am"
	"tez/internal/cluster"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/row"
	"tez/internal/runtime"
)

// spyProcessor is the stage processor plus a witness (specSpy).
const spyProcessor = "relop.test.spec_spy"

// specSpy is the stage processor plus a witness: after each task it notes
// which *StageSpec the task ran on, in which container's registry, and
// whether that program still equals a fresh decode of the vertex's payload.
// An attempt log.fail picks fails after running.
type specSpy struct {
	stageProcessor
	log *spyLog
}

type spyLog struct {
	mu       sync.Mutex
	fail     func(runtime.Meta) bool
	tasks    map[string]int                // vertex -> tasks run
	specs    map[string]map[*StageSpec]int // vertex -> program -> tasks that ran on it
	ran      map[string]map[*runtime.ObjectRegistry]map[*StageSpec]bool
	attempts map[runtime.Meta]spyRun
	changed  []string
}

type spyRun struct {
	spec *StageSpec
	reg  *runtime.ObjectRegistry
}

// newSpyLog registers the spy processor, witnessing into a new log.
func newSpyLog() *spyLog {
	log := &spyLog{
		tasks:    map[string]int{},
		specs:    map[string]map[*StageSpec]int{},
		ran:      map[string]map[*runtime.ObjectRegistry]map[*StageSpec]bool{},
		attempts: map[runtime.Meta]spyRun{},
	}
	runtime.RegisterProcessor(spyProcessor, func() runtime.Processor { return &specSpy{log: log} })
	return log
}

func (s *specSpy) Run(in map[string]runtime.Input, out map[string]runtime.Output) error {
	err := s.stageProcessor.Run(in, out)
	var fresh StageSpec
	if derr := plugin.Decode(s.ctx.Payload, &fresh); derr != nil {
		return derr
	}
	meta, reg := s.ctx.Meta, s.ctx.Services.Registry
	v := meta.Vertex
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	s.log.tasks[v]++
	if s.log.specs[v] == nil {
		s.log.specs[v] = map[*StageSpec]int{}
		s.log.ran[v] = map[*runtime.ObjectRegistry]map[*StageSpec]bool{}
	}
	s.log.specs[v][s.spec]++
	if s.log.ran[v][reg] == nil {
		s.log.ran[v][reg] = map[*StageSpec]bool{}
	}
	s.log.ran[v][reg][s.spec] = true
	s.log.attempts[meta] = spyRun{s.spec, reg}
	if !reflect.DeepEqual(*s.spec, fresh) {
		s.log.changed = append(s.log.changed, fmt.Sprintf("%s task %d", meta.DAG+"/"+v, meta.Task))
	}
	if err == nil && s.log.fail != nil && s.log.fail(meta) {
		err = errors.New("spy: injected attempt failure")
	}
	return err
}

// registries maps every registry a spied task ran in to the vertex names
// that ran there.
func (l *spyLog) registries() map[*runtime.ObjectRegistry]map[string]bool {
	out := map[*runtime.ObjectRegistry]map[string]bool{}
	for v, regs := range l.ran {
		for reg := range regs {
			if out[reg] == nil {
				out[reg] = map[string]bool{}
			}
			out[reg][v] = true
		}
	}
	return out
}

// runSpied compiles roots, hands every stage vertex to the spy and runs
// the DAG, which must succeed.
func (h *harness) runSpied(sess *am.Session, cfg Config, name string, roots []*Node) am.DAGResult {
	h.t.Helper()
	d, err := NewCompiler(cfg).CompileTez(name, roots)
	if err != nil {
		h.t.Fatal(err)
	}
	for _, v := range d.Vertices {
		if v.Processor.Name == StageProcessorName {
			v.Processor.Name = spyProcessor
		}
	}
	res, err := sess.Run(d)
	if err != nil || res.Status != am.DAGSucceeded {
		h.t.Fatalf("%s: %v %v", name, res.Status, err)
	}
	return res
}

// oneContainer is a platform of one node with room for one container,
// which a session with a long idle release keeps: every task runs in it.
func oneContainer(t *testing.T) (*harness, *am.Session) {
	cfg := platform.Fast(1)
	cfg.Cluster.NodeResource = cluster.Resource{MemoryMB: 1024, VCores: 1}
	plat := platform.New(cfg)
	t.Cleanup(plat.Stop)
	sess := am.NewSession(plat, am.Config{Name: t.Name(), ContainerIdleRelease: 10 * time.Second})
	t.Cleanup(func() { sess.Close() })
	return &harness{plat: plat, t: t}, sess
}

// TestStageSpecSharedReadOnly: the tasks that run in one container with
// one payload run on one decoded StageSpec, taken from the container's
// object registry, in this DAG and the next: the DAG runs twice in one
// session. Nothing the tasks do writes through it — after every task of
// both runs it still deep-equals a fresh decode of the payload (and under
// -race a write would be reported against the next task's reads). The
// plan has every operator kind: a filter and a projection feeding a
// broadcast hash join, a grouped aggregation, and an ordered limit. The
// engine's gob decodes over both runs number the (container, vertex)
// pairs that ran a task, so the second run decodes nothing where the
// first ran. When each DAG is done, every registry its tasks ran in
// holds only the stage programs, one per vertex name that ran there: the
// join's DAG-lifetime hash table went with its DAG. How many containers
// the scheduler chose is not the test's business.
func TestStageSpecSharedReadOnly(t *testing.T) {
	log := newSpyLog()

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
	plan := func(out string) []*Node {
		scan := Scan(facts)
		filtered := FilterNode(scan, Cmp(">=", Col(1), LitInt(100)))
		proj := ProjectNode(filtered, []*Expr{Col(0), Arith("+", Col(1), LitInt(1))}, []string{"k", "v1"}, []row.Kind{row.KindInt, row.KindInt})
		join := JoinNode(proj, Scan(dims), []*Expr{Col(0)}, []*Expr{Col(0)}, true)
		agg := AggNode(join, []*Expr{Col(0)}, []string{"k"}, []AggDef{
			{Func: "count", Name: "n"}, {Func: "max", Arg: Col(3), Name: "w"},
		})
		return []*Node{StoreNode(SortNode(agg, []*Expr{Col(0)}, []bool{true}, 3), out)}
	}
	// One scan task per block: twelve shards are twelve tasks.
	ccfg := Config{SplitSize: plat.FS.BlockSize()}
	d, err := NewCompiler(ccfg).CompileTez("probe", plan("/out/probe"))
	if err != nil {
		t.Fatal(err)
	}
	// The build side's registry key (buildTable), to see it swept.
	var hjKeys []string
	for _, v := range d.Vertices {
		var spec StageSpec
		if err := plugin.Decode(v.Processor.Payload, &spec); err != nil {
			t.Fatal(err)
		}
		for _, in := range spec.Inputs {
			if in.Mode == InBuild && in.CacheInRegistry {
				hjKeys = append(hjKeys, fmt.Sprintf("relop/hj/%s/%s", v.Name, in.Name))
			}
		}
	}
	if len(hjKeys) == 0 {
		t.Fatal("the plan caches no hash table — the sweep check proves nothing")
	}

	sess := am.NewSession(plat, am.Config{Name: "shared", ContainerIdleRelease: 10 * time.Second})
	defer sess.Close()
	before := plugin.GobDecodes()
	for run := 1; run <= 2; run++ {
		name, out := fmt.Sprintf("shared-%d", run), fmt.Sprintf("/out/shared-%d", run)
		h.runSpied(sess, ccfg, name, plan(out))
		h.checkStored(out, intRows([]int64{3, 100, 1000}, []int64{2, 100, 100}, []int64{1, 100, 10}), true)

		log.mu.Lock()
		if len(log.changed) > 0 {
			t.Fatalf("run %d: a shared StageSpec no longer equals its payload after %v", run, log.changed)
		}
		// Lifetime: what a finished DAG leaves in a registry its tasks
		// ran in is one stage program per vertex name that ran there.
		for reg, vertices := range log.registries() {
			for v := range vertices {
				if _, ok := reg.Get(runtime.Meta{}, "relop/stage/"+v); !ok {
					t.Errorf("run %d: vertex %s's program is not in a registry it ran in", run, v)
				}
			}
			for _, key := range hjKeys {
				if _, ok := reg.Get(runtime.Meta{DAG: name}, key); ok {
					t.Errorf("run %d: hash table %s outlived its DAG", run, key)
				}
			}
			if n := reg.Len(); n != len(vertices) {
				t.Errorf("run %d: a registry holds %d entries after the DAG, want its %d stage programs", run, n, len(vertices))
			}
		}
		log.mu.Unlock()
	}

	log.mu.Lock()
	defer log.mu.Unlock()
	shared := false
	var pairs, tasks int
	for v, n := range log.tasks {
		for reg, specs := range log.ran[v] {
			if len(specs) != 1 {
				t.Errorf("vertex %s: %d decoded programs in one container over two runs (registry %p)", v, len(specs), reg)
			}
		}
		for _, ran := range log.specs[v] {
			shared = shared || ran > 1
		}
		pairs += len(log.ran[v])
		tasks += n
		t.Logf("vertex %s: %d tasks in %d containers over two runs", v, n, len(log.ran[v]))
	}
	if !shared {
		t.Fatal("no two tasks shared a decoded StageSpec — the test proved nothing")
	}
	// The spy's own per-task decode is the test's, not the engine's.
	if engine := int(plugin.GobDecodes()-before) - tasks; engine > pairs {
		t.Errorf("%d gob decodes by the engine over two runs for %d (container, vertex) pairs", engine, pairs)
	}
}

// loadStageSpec's cache follows the payload, not the DAG: one decode per
// (container, payload) across DAGs, surviving the DAG's and the vertex's
// sweeps; the same vertex name with another payload gets a fresh program,
// never the cached one, and replaces it; a payload changed in place after
// its program was cached is not served that program; without a registry
// every task decodes; and a junk payload is refused.
func TestLoadStageSpecLifetime(t *testing.T) {
	// Same-length encodings, one byte apart.
	specA := StageSpec{Inputs: []StageInput{{Name: "a", Mode: InSource}}}
	specB := StageSpec{Inputs: []StageInput{{Name: "b", Mode: InSource}}}
	reg := runtime.NewObjectRegistry()
	ctx := func(dagID string, payload []byte, reg *runtime.ObjectRegistry) *runtime.Context {
		return &runtime.Context{
			Meta:     runtime.Meta{DAG: dagID, Vertex: "scan"},
			Payload:  payload,
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
	decodes := func(since int64) int64 { return plugin.GobDecodes() - since }

	before := plugin.GobDecodes()
	a1 := load(ctx("d1", plugin.MustEncode(specA), reg))
	a2 := load(ctx("d1", plugin.MustEncode(specA), reg))
	reg.SweepVertex("d1", "scan")
	reg.SweepDAG("d1")
	a3 := load(ctx("d2", plugin.MustEncode(specA), reg))
	if a1 != a2 || a1 != a3 || decodes(before) != 1 {
		t.Fatalf("one payload in two DAGs: programs %p, %p and %p, %d decodes", a1, a2, a3, decodes(before))
	}

	before = plugin.GobDecodes()
	if b := load(ctx("d2", plugin.MustEncode(specB), reg)); b == a1 || b.Inputs[0].Name != "b" || decodes(before) != 1 {
		t.Fatalf("another payload under vertex scan was served %+v after %d decodes", b, decodes(before))
	}
	if reg.Len() != 1 {
		t.Fatalf("registry holds %d entries, want one per (kind, vertex name)", reg.Len())
	}
	if a4 := load(ctx("d3", plugin.MustEncode(specA), reg)); a4 == a1 || a4.Inputs[0].Name != "a" {
		t.Fatalf("replaced program served again: %p %+v", a4, a4)
	}

	// The cache keeps its own copy of the payload it decoded: rewritten
	// in place, the caller's slice is not served the old program.
	payload := plugin.MustEncode(specB)
	load(ctx("d4", payload, reg))
	copy(payload, plugin.MustEncode(specA))
	if a := load(ctx("d4", payload, reg)); a.Inputs[0].Name != "a" {
		t.Fatalf("a payload rewritten in place was served the program of its old bytes: %+v", a)
	}

	before = plugin.GobDecodes()
	if n1, n2 := load(ctx("d1", plugin.MustEncode(specA), nil)), load(ctx("d1", plugin.MustEncode(specA), nil)); n1 == n2 || decodes(before) != 2 {
		t.Fatalf("no registry, yet two tasks share a program or skip a decode (%d decodes)", decodes(before))
	}
	if _, err := loadStageSpec(ctx("d5", []byte("junk"), reg)); err == nil {
		t.Fatal("junk payload decoded")
	}
}

// TestStageProgramCacheBounded: a session runs fifty DAGs of one plan
// shape with fifty filter constants, so every DAG has the same vertex
// names and a different scan payload. Every result is right, the one
// container's registry holds no more after the fiftieth DAG than after
// the first, and only the scan's program, the one that changed, is
// decoded again.
func TestStageProgramCacheBounded(t *testing.T) {
	const runs = 50
	log := newSpyLog()
	h, sess := oneContainer(t)
	var rows []row.Row
	for i := int64(0); i < 300; i++ {
		rows = append(rows, row.Row{row.Int(i % 5), row.Int(i)})
	}
	facts := h.table("facts", row.NewSchema("k:int", "v:int"), 3, rows)

	var tasks, vertices int64
	before := plugin.GobDecodes()
	firstLen := -1
	for i := 0; i < runs; i++ {
		cut := int64(6 * i)
		out := fmt.Sprintf("/out/bounded-%d", i)
		filtered := FilterNode(Scan(facts), Cmp(">=", Col(1), LitInt(cut)))
		agg := AggNode(filtered, []*Expr{Col(0)}, []string{"k"}, []AggDef{
			{Func: "count", Name: "n"}, {Func: "sum", Arg: Col(1), Name: "s"},
		})
		res := h.runSpied(sess, Config{}, fmt.Sprintf("bounded-%d", i), []*Node{StoreNode(agg, out)})
		tasks += res.Counters.Get("TASKS_SUCCEEDED")
		vertices = res.Counters.Get("VERTICES_SUCCEEDED")

		var want []row.Row
		for k := int64(0); k < 5; k++ {
			var n, s int64
			for v := k; v < 300; v += 5 {
				if v >= cut {
					n, s = n+1, s+v
				}
			}
			want = append(want, row.Row{row.Int(k), row.Int(n), row.Int(s)})
		}
		h.checkStored(out, want, false)

		log.mu.Lock()
		regs := log.registries()
		if len(log.changed) > 0 || len(regs) != 1 {
			t.Fatalf("DAG %d: programs changed %v; tasks ran in %d containers, want the one", i, log.changed, len(regs))
		}
		for reg := range regs {
			if firstLen < 0 {
				firstLen = reg.Len()
			} else if n := reg.Len(); n > firstLen {
				t.Fatalf("DAG %d: the registry holds %d entries, %d after the first DAG", i, n, firstLen)
			}
		}
		log.mu.Unlock()
	}
	engine := plugin.GobDecodes() - before - tasks
	t.Logf("%d DAGs of %d vertices, %d tasks: %d gob decodes by the engine, registry at %d entries", runs, vertices, tasks, engine, firstLen)
	if engine > runs+vertices-1 {
		t.Fatalf("%d gob decodes by the engine, want at most one per DAG for the scan and one for each other vertex (%d)", engine, runs+vertices-1)
	}
}

// TestRetryRunsOnCachedProgram: a stage task's first attempt fails after
// running, and the retry, in the same container, runs on the program the
// failed attempt ran on, which still equals a fresh decode of the payload.
func TestRetryRunsOnCachedProgram(t *testing.T) {
	log := newSpyLog()
	h, sess := oneContainer(t)
	facts := h.table("facts", row.NewSchema("k:int", "v:int"), 2, intRows(
		[]int64{1, 10}, []int64{2, 20}, []int64{1, 30}, []int64{2, 40}))
	isScan := func(m runtime.Meta) bool { return strings.Contains(m.Vertex, "scan") }
	log.fail = func(m runtime.Meta) bool { return isScan(m) && m.Task == 0 && m.Attempt == 0 }
	agg := AggNode(Scan(facts), []*Expr{Col(0)}, []string{"k"}, []AggDef{{Func: "sum", Arg: Col(1), Name: "s"}})
	h.runSpied(sess, Config{}, "retry", []*Node{StoreNode(agg, "/out/retry")})
	h.checkStored("/out/retry", intRows([]int64{1, 40}, []int64{2, 60}), false)

	log.mu.Lock()
	defer log.mu.Unlock()
	var first, retry *spyRun
	for m, r := range log.attempts {
		if isScan(m) && m.Task == 0 {
			switch m.Attempt {
			case 0:
				first = &r
			case 1:
				retry = &r
			}
		}
	}
	if first == nil || retry == nil {
		t.Fatalf("scan task 0: failed attempt seen %v, retry seen %v", first != nil, retry != nil)
	}
	if first.reg != retry.reg {
		t.Fatal("the retry ran in another container — the test proved nothing")
	}
	if first.spec != retry.spec {
		t.Fatalf("the retry decoded its own program (%p, failed attempt %p)", retry.spec, first.spec)
	}
	if len(log.changed) > 0 {
		t.Fatalf("a program no longer equals its payload after %v", log.changed)
	}
}

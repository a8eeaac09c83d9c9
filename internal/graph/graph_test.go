package graph

import (
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"testing"
	"time"

	"tez/internal/am"
	"tez/internal/cluster"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/testutil"
	"tez/internal/timeline"
)

func loadFixture(t *testing.T, name string) *Graph {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ParseEdgeList(data)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newHarness builds a 4-node platform and a warm session: idle release is
// stretched past the driver's between-superstep bookkeeping so containers
// (and their registries) survive from one superstep DAG to the next.
func newHarness(t *testing.T) (*platform.Platform, *am.Session) {
	t.Helper()
	plat := platform.New(platform.Fast(4))
	testutil.FsckAtEnd(t, plat.FS)
	t.Cleanup(plat.Stop)
	sess := am.NewSession(plat, am.Config{Name: "graphtest", ContainerIdleRelease: 2 * time.Second})
	t.Cleanup(sess.Close)
	return plat, sess
}

func TestParseEdgeListFixture(t *testing.T) {
	g := loadFixture(t, "weighted.txt")
	if got := g.NumVertices(); got != 8 {
		t.Fatalf("vertices = %d, want 8", got)
	}
	if got := g.NumEdges(); got != 10 {
		t.Fatalf("edges = %d, want 10", got)
	}
	es := g.Edges(0)
	if len(es) != 2 || es[0].To != 1 || es[0].Weight != 2.0 || es[1].To != 2 {
		t.Fatalf("edges(0) = %v", es)
	}
	if len(g.Edges(7)) != 0 {
		t.Fatalf("vertex 7 should be isolated")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(500, 4, 11), Generate(500, 4, 11)
	if a.NumVertices() != 500 || a.NumEdges() != b.NumEdges() {
		t.Fatalf("generate mismatch: %d/%d vs %d/%d",
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for _, id := range a.VertexIDs() {
		ae, be := a.Edges(id), b.Edges(id)
		if len(ae) != len(be) {
			t.Fatalf("vertex %d: %d vs %d edges", id, len(ae), len(be))
		}
		for i := range ae {
			if ae[i] != be[i] {
				t.Fatalf("vertex %d edge %d differs", id, i)
			}
		}
	}
	if c := Generate(500, 4, 12); c.NumEdges() == a.NumEdges() {
		// Different seeds overwhelmingly produce different chord sets; edge
		// count collision alone is possible but adjacency equality is not
		// worth asserting against — just sanity-check the graph is connected
		// ring + chords sized plausibly.
		t.Logf("seeds 11 and 12 coincide in edge count (%d)", c.NumEdges())
	}
}

// refComponents labels every vertex with the minimum id reachable over the
// (directed) fixture edges treated as given — the fixture is symmetric, so
// this is the connected-component minimum.
func refComponents(g *Graph) map[int64]float64 {
	labels := map[int64]float64{}
	for _, id := range g.VertexIDs() {
		labels[id] = float64(id)
	}
	for changed := true; changed; {
		changed = false
		for _, id := range g.VertexIDs() {
			for _, e := range g.Edges(id) {
				if labels[id] < labels[e.To] {
					labels[e.To] = labels[id]
					changed = true
				}
			}
		}
	}
	return labels
}

func TestConnectedComponents(t *testing.T) {
	plat, sess := newHarness(t)
	g := loadFixture(t, "components.txt")
	res, err := Run(sess, plat, Job{Name: "cc", Program: CCProgram, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("cc did not converge in %d supersteps", res.Supersteps)
	}
	want := refComponents(g)
	if len(res.Values) != len(want) {
		t.Fatalf("got %d labels, want %d", len(res.Values), len(want))
	}
	for id, w := range want {
		if res.Values[id] != w {
			t.Errorf("vertex %d: label %v, want %v", id, res.Values[id], w)
		}
	}
}

// refSSSP is textbook Dijkstra. Distance arithmetic accumulates along the
// shortest path in the same order the BSP relaxation does, so equality is
// exact, not approximate.
func refSSSP(g *Graph, source int64) map[int64]float64 {
	dist := map[int64]float64{}
	for _, id := range g.VertexIDs() {
		dist[id] = math.Inf(1)
	}
	dist[source] = 0
	done := map[int64]bool{}
	for {
		u, best := int64(-1), math.Inf(1)
		for _, id := range g.VertexIDs() {
			if !done[id] && dist[id] < best {
				u, best = id, dist[id]
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		for _, e := range g.Edges(u) {
			if d := dist[u] + e.Weight; d < dist[e.To] {
				dist[e.To] = d
			}
		}
	}
}

func TestSSSP(t *testing.T) {
	plat, sess := newHarness(t)
	g := loadFixture(t, "weighted.txt")
	res, err := Run(sess, plat, Job{
		Name: "sssp", Program: SSSPProgram, Graph: g,
		ProgramConfig: SSSPConfig{Source: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("sssp did not converge in %d supersteps", res.Supersteps)
	}
	want := refSSSP(g, 0)
	for id, w := range want {
		got := res.Values[id]
		if got != w && !(math.IsInf(got, 1) && math.IsInf(w, 1)) {
			t.Errorf("vertex %d: dist %v, want %v", id, got, w)
		}
	}
	if !math.IsInf(res.Values[7], 1) {
		t.Errorf("isolated vertex 7 should be unreachable, got %v", res.Values[7])
	}
}

// serialPageRank mirrors the program's superstep semantics (including the
// one-superstep dangling-mass lag) in-process for the given step count.
func serialPageRank(g *Graph, damping float64, steps int) map[int64]float64 {
	n := float64(g.NumVertices())
	val := map[int64]float64{}
	for _, id := range g.VertexIDs() {
		val[id] = 1 / n
	}
	inbox := map[int64]float64{}
	danglingPrev := 0.0
	for s := 0; s < steps; s++ {
		nextInbox := map[int64]float64{}
		dangling := 0.0
		for _, id := range g.VertexIDs() {
			v := val[id]
			if s > 0 {
				v = (1-damping)/n + damping*(inbox[id]+danglingPrev/n)
				val[id] = v
			}
			es := g.Edges(id)
			if len(es) == 0 {
				dangling += v
				continue
			}
			share := v / float64(len(es))
			for _, e := range es {
				nextInbox[e.To] += share
			}
		}
		inbox, danglingPrev = nextInbox, dangling
	}
	return val
}

func TestPageRank(t *testing.T) {
	plat, sess := newHarness(t)
	g := Generate(200, 4, 3)
	res, err := Run(sess, plat, Job{
		Name: "pr", Program: PageRankProgram, Graph: g,
		ProgramConfig: PageRankConfig{Damping: 0.85, Epsilon: 1e-10},
		MaxSupersteps: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("pagerank did not converge in %d supersteps (delta=%v)",
			res.Supersteps, res.Aggregates[aggPRDelta])
	}
	if res.Supersteps >= 60 {
		t.Fatalf("convergence did not stop the loop early (%d supersteps)", res.Supersteps)
	}
	want := serialPageRank(g, 0.85, res.Supersteps)
	var sum float64
	for id, w := range want {
		got := res.Values[id]
		if math.Abs(got-w) > 1e-9 {
			t.Errorf("vertex %d: rank %v, serial reference %v", id, got, w)
		}
		sum += got
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("ranks sum to %v, want ~1", sum)
	}
}

// TestConvergenceStopsEarly: CC on a short path graph must finish in about
// diameter supersteps, far under the budget, with no empty trailing
// superstep beyond the one that detects quiescence.
func TestConvergenceStopsEarly(t *testing.T) {
	plat, sess := newHarness(t)
	g := NewGraph()
	for i := int64(0); i < 6; i++ {
		if i > 0 {
			if err := g.AddUndirectedEdge(i-1, i, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := Run(sess, plat, Job{Name: "path", Program: CCProgram, Graph: g, MaxSupersteps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("path graph CC did not converge")
	}
	if res.Supersteps > 10 {
		t.Fatalf("CC on a 6-path took %d supersteps", res.Supersteps)
	}
	last := res.Stats[len(res.Stats)-1]
	if last.Sent != 0 || last.Halted != g.NumVertices() {
		t.Fatalf("final superstep not quiescent: %+v", last)
	}
	for id := int64(0); id < 6; id++ {
		if res.Values[id] != 0 {
			t.Fatalf("vertex %d label %v, want 0", id, res.Values[id])
		}
	}
}

// TestRegistryCachingAcrossSupersteps: superstep 0 must cold-load every
// partition; with container reuse later supersteps must hit the registry,
// and the ablation knob must force cold loads throughout.
func TestRegistryCachingAcrossSupersteps(t *testing.T) {
	plat, sess := newHarness(t)
	g := Generate(300, 4, 5)
	job := Job{
		Name: "reg", Program: PageRankProgram, Graph: g,
		ProgramConfig: PageRankConfig{Epsilon: -1}, // fixed-length run
		MaxSupersteps: 6, Partitions: 4,
		Timeline: timeline.New(),
	}
	res, err := Run(sess, plat, job)
	if err != nil {
		t.Fatal(err)
	}
	s0 := res.Stats[0]
	if s0.RegistryHits != 0 || s0.ColdLoads != int64(job.Partitions) {
		t.Fatalf("superstep 0: hits=%d cold=%d, want 0/%d", s0.RegistryHits, s0.ColdLoads, job.Partitions)
	}
	var hits, cold int64
	for _, s := range res.Stats[1:] {
		hits += s.RegistryHits
		cold += s.ColdLoads
	}
	if hits == 0 {
		t.Fatalf("no registry hits after superstep 0 (cold=%d) — container reuse broken?", cold)
	}
	if hits < cold {
		t.Logf("warning: cold loads (%d) outnumber registry hits (%d)", cold, hits)
	}
	spans := 0
	for _, ev := range job.Timeline.Events() {
		if ev.Type == timeline.GraphSuperstep {
			spans++
		}
	}
	if spans != res.Supersteps {
		t.Fatalf("timeline spans = %d, want %d", spans, res.Supersteps)
	}

	job.Name = "reg-cold"
	job.Timeline = nil
	job.DisableRegistryCache = true
	resCold, err := Run(sess, plat, job)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range resCold.Stats {
		if s.RegistryHits != 0 {
			t.Fatalf("superstep %d hit the registry with caching disabled", s.Superstep)
		}
		if s.ColdLoads != int64(job.Partitions) {
			t.Fatalf("superstep %d cold loads = %d, want %d", s.Superstep, s.ColdLoads, job.Partitions)
		}
	}
	// Same computation either way.
	if string(res.CanonicalBytes()) != string(resCold.CanonicalBytes()) {
		t.Fatal("cached and cold runs disagree on final ranks")
	}
}

// TestDriverShutdownNoGoroutineLeak: after the job, session close and
// platform stop, the process must return to its pre-run goroutine count.
func TestDriverShutdownNoGoroutineLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("goroutine-leak check skipped in -short")
	}
	before := goruntime.NumGoroutine()
	plat := platform.New(platform.Fast(4))
	sess := am.NewSession(plat, am.Config{Name: "leak", ContainerIdleRelease: 2 * time.Second})
	g := loadFixture(t, "components.txt")
	if _, err := Run(sess, plat, Job{Name: "leak", Program: CCProgram, Graph: g}); err != nil {
		sess.Close()
		plat.Stop()
		t.Fatal(err)
	}
	sess.Close()
	plat.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := goruntime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after shutdown\n%s",
				before, goruntime.NumGoroutine(), buf[:goruntime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJobValidation exercises the driver's argument checks.
func TestJobValidation(t *testing.T) {
	plat, sess := newHarness(t)
	if _, err := Run(sess, plat, Job{Name: "x", Program: CCProgram}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := NewGraph()
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sess, plat, Job{Name: "x", Program: "graph.nosuch", Graph: g}); err == nil {
		t.Fatal("unregistered program accepted")
	}
	if _, err := Run(sess, plat, Job{Program: CCProgram, Graph: g}); err == nil {
		t.Fatal("unnamed job accepted")
	}
}

func sortedIDs(m map[int64]float64) []int64 {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestCanonicalBytes: ascending ids, 16 bytes per vertex, order-insensitive
// construction.
func TestCanonicalBytes(t *testing.T) {
	r := &Result{Values: map[int64]float64{3: 0.5, 1: 0.25, 2: 0.25}}
	b := r.CanonicalBytes()
	if len(b) != 48 {
		t.Fatalf("canonical bytes = %d, want 48", len(b))
	}
	ids := sortedIDs(r.Values)
	if fmt.Sprint(ids) != "[1 2 3]" {
		t.Fatalf("ids = %v", ids)
	}
}

// TestGobDecodesFollowContainers: every superstep DAG decodes its compute
// and inbox payloads once per container, not once per task — eight
// partitions on four containers stay at or below vertices × containers
// gob decodes per superstep. (A Configurable program's own payload is
// decoded with the compute payload, one more per container.)
func TestGobDecodesFollowContainers(t *testing.T) {
	cfg := platform.Fast(4)
	cfg.Cluster.NodeResource = cluster.Resource{MemoryMB: 1024, VCores: 1}
	plat := platform.New(cfg)
	defer plat.Stop()
	sess := am.NewSession(plat, am.Config{Name: "gobcost", ContainerIdleRelease: 10 * time.Second})
	defer sess.Close()
	before := plugin.GobDecodes()
	res, err := Run(sess, plat, Job{Name: "gobcost", Program: CCProgram, Graph: Generate(400, 3, 5), Partitions: 8})
	decodes := plugin.GobDecodes() - before
	if err != nil {
		t.Fatal(err)
	}
	containers, _ := sess.SchedulerStats()
	var tasks int64
	for _, s := range res.Stats {
		tasks += int64(8 + s.InboxTasks)
	}
	bound := int64(2 * res.Supersteps * containers)
	t.Logf("%d supersteps, %d tasks on %d containers: %d gob decodes (bound %d)", res.Supersteps, tasks, containers, decodes, bound)
	if containers > 4 || tasks <= bound {
		t.Fatalf("%d tasks on %d containers: not the many-tasks-few-containers shape this test is about", tasks, containers)
	}
	if !res.Converged || decodes == 0 || decodes > bound {
		t.Fatalf("converged %v, %d gob decodes: want at least one and at most 2 vertices × %d containers × %d supersteps",
			res.Converged, decodes, containers, res.Supersteps)
	}
}

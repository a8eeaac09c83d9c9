package am

import (
	"fmt"

	"tez/internal/dag"
	"tez/internal/plugin"
	"tez/internal/timeline"
)

// vmContext implements VertexManagerContext for a vertex. Every method
// runs on the session's loop.
type vmContext struct {
	run *dagRun
	vs  *vertexState
}

func (c *vmContext) VertexName() string    { return c.vs.v.Name }
func (c *vmContext) Payload() []byte       { return c.vs.v.Manager.Payload }
func (c *vmContext) Parallelism() int      { return c.vs.parallelism }
func (c *vmContext) SessionConfig() Config { return c.run.cfg }

func (c *vmContext) Fail(err error) {
	c.run.fail(DAGFailed, fmt.Errorf("am: vertex manager of %s: %w", c.vs.v.Name, err))
}

// SetParallelism applies a runtime parallelism change (Figure 6): tasks
// are rebuilt and every in/out edge manager is re-initialised with the new
// geometry. Scatter-gather in-edges keep their original partition count
// (BaseParts), so a shrink makes each task own a contiguous partition
// range.
func (c *vmContext) SetParallelism(n int) error {
	return c.SetParallelismWithEdges(n, nil)
}

// SetParallelismWithEdges is the full reconfiguration call (mirroring
// Tez's setVertexParallelism with EdgeManagerPluginDescriptors): it
// changes the task count and atomically swaps the named in-edges' edge
// manager descriptors, validating every new routing table before anything
// is committed. This is how the dynamically-partitioned-hash-join pattern
// installs its runtime partition grouping (§5.2).
func (c *vmContext) SetParallelismWithEdges(n int, edgeManagers map[string]plugin.Descriptor) error {
	vs := c.vs
	run := c.run
	if n <= 0 {
		return fmt.Errorf("am: SetParallelism(%d) on %s", n, vs.v.Name)
	}
	if n == vs.parallelism && len(edgeManagers) == 0 {
		return nil
	}
	for _, ts := range vs.tasks {
		if !ts.lc.In(tPending) {
			return fmt.Errorf("am: SetParallelism on %s after tasks were scheduled", vs.v.Name)
		}
	}
	for _, es := range run.inEdges[vs.v.Name] {
		if es.e.Property.Movement == dag.OneToOne {
			return fmt.Errorf("am: SetParallelism on %s with one-to-one in-edge", vs.v.Name)
		}
		if es.e.Property.Movement == dag.ScatterGather && n > es.baseParts {
			return fmt.Errorf("am: SetParallelism(%d) on %s exceeds %d partitions", n, vs.v.Name, es.baseParts)
		}
	}
	// A one-to-one consumer whose task count is already decided pins ours.
	for _, es := range run.outEdges[vs.v.Name] {
		if es.e.Property.Movement == dag.OneToOne && es.to.parallelism > 0 && es.to.parallelism != n {
			return fmt.Errorf("am: SetParallelism(%d) on %s conflicts with one-to-one consumer %s (%d tasks)",
				n, vs.v.Name, es.e.To, es.to.parallelism)
		}
	}
	// A consumer that has already scheduled tasks derived its attempts'
	// physical-input counts from the current out-edge routing tables.
	// Swapping those tables underneath it strands running attempts waiting
	// for source tasks that no longer exist, deadlocking the DAG. The
	// reconfiguration loses the race in that case: the submitted
	// parallelism stands.
	for _, es := range run.outEdges[vs.v.Name] {
		if es.mgr == nil {
			continue
		}
		for _, ts := range es.to.tasks {
			if !ts.lc.In(tPending) {
				return fmt.Errorf("am: SetParallelism(%d) on %s after consumer %s scheduled tasks",
					n, vs.v.Name, es.e.To)
			}
		}
	}

	// Validate-then-commit: dry-build every affected routing table first so
	// a failure cannot leave the DAG half-reconfigured.
	type rebuilt struct {
		es  *edgeState
		mgr dag.EdgeManager
	}
	var commits []rebuilt
	type propSwap struct {
		es   *edgeState
		desc plugin.Descriptor
	}
	var swaps []propSwap
	for _, es := range run.inEdges[vs.v.Name] {
		if es.mgr == nil {
			continue
		}
		prop := es.e.Property
		if d, ok := edgeManagers[es.e.From]; ok {
			prop.Manager = d
			swaps = append(swaps, propSwap{es, d})
		}
		mgr, err := dag.NewEdgeManager(prop, dag.EdgeContext{
			SrcParallelism:  es.from.parallelism,
			DestParallelism: n,
			BasePartitions:  es.baseParts,
		})
		if err != nil {
			return fmt.Errorf("am: SetParallelism(%d) on %s: %w", n, vs.v.Name, err)
		}
		commits = append(commits, rebuilt{es, mgr})
	}
	for _, es := range run.outEdges[vs.v.Name] {
		if es.mgr == nil {
			continue
		}
		mgr, err := dag.NewEdgeManager(es.e.Property, dag.EdgeContext{
			SrcParallelism:  n,
			DestParallelism: es.to.parallelism,
			BasePartitions:  es.baseParts,
		})
		if err != nil {
			return fmt.Errorf("am: SetParallelism(%d) on %s: %w", n, vs.v.Name, err)
		}
		commits = append(commits, rebuilt{es, mgr})
	}

	vs.parallelism = n
	vs.tasks = make([]*taskState, n)
	for i := range vs.tasks {
		vs.tasks[i] = newTaskState(run, vs, i)
	}
	for _, c := range commits {
		c.es.mgr = c.mgr
	}
	for _, sw := range swaps {
		sw.es.e.Property.Manager = sw.desc
	}
	run.counters.Add("PARALLELISM_RECONFIGURED", 1)
	run.tl().Record(timeline.Event{
		Type: timeline.VertexReconfigured, DAG: run.id,
		Vertex: vs.v.Name, Val: int64(n),
	})
	return nil
}

// ScheduleTasks requests execution of the given tasks (idempotent).
func (c *vmContext) ScheduleTasks(tasks []int) {
	c.run.scheduleTasks(c.vs, tasks)
}

func (c *vmContext) SourceVertices() []string {
	var out []string
	for _, es := range c.run.inEdges[c.vs.v.Name] {
		out = append(out, es.e.From)
	}
	return out
}

func (c *vmContext) SourceVertexParallelism(name string) int {
	vs, ok := c.run.vertices[name]
	if !ok || !vertexReady(vs) {
		return -1
	}
	return vs.parallelism
}

func (c *vmContext) SourceTasksCompleted(name string) int {
	vs, ok := c.run.vertices[name]
	if !ok {
		return 0
	}
	return vs.completed
}

func (c *vmContext) SourceMovement(name string) dag.MovementType {
	if es := c.run.findEdge(name, c.vs.v.Name); es != nil {
		return es.e.Property.Movement
	}
	return dag.CustomMovement
}

func (c *vmContext) SourceScheduling(name string) dag.SchedulingType {
	if es := c.run.findEdge(name, c.vs.v.Name); es != nil {
		return es.e.Property.Scheduling
	}
	return dag.Sequential
}

func (c *vmContext) SourceTaskCompleted(name string, task int) bool {
	vs, ok := c.run.vertices[name]
	if !ok || task < 0 || task >= len(vs.tasks) {
		return false
	}
	return vs.tasks[task].lc.In(tSucceeded)
}

// SetOutEdgePayload swaps the producer-side output configuration of an
// out-edge before this vertex's tasks run — the IPO reconfiguration hook
// behind sample-based range partitioning and skew handling (§3.4).
func (c *vmContext) SetOutEdgePayload(destVertex string, payload []byte) error {
	es := c.run.findEdge(c.vs.v.Name, destVertex)
	if es == nil {
		return fmt.Errorf("am: no edge %s->%s", c.vs.v.Name, destVertex)
	}
	for _, ts := range c.vs.tasks {
		if !ts.lc.In(tPending) {
			return fmt.Errorf("am: SetOutEdgePayload on %s after tasks were scheduled", c.vs.v.Name)
		}
	}
	es.e.Property.Output.Payload = payload
	return nil
}

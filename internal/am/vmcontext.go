package am

import (
	"fmt"
	"slices"

	"tez/internal/dag"
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

// SetPartitionRanges applies a runtime parallelism change (Figure 6):
// the vertex gets len(starts) tasks, task t reading partitions
// [starts[t], starts[t+1]) of every scatter-gather in-edge, and every
// in/out edge manager is re-initialised with the new geometry.
// Scatter-gather in-edges keep their original partition count
// (BaseParts), so a shrink makes each task own a contiguous partition
// range.
func (c *vmContext) SetPartitionRanges(starts []int) error {
	vs := c.vs
	run := c.run
	n := len(starts)
	if n == 0 {
		return fmt.Errorf("am: no partition ranges for %s", vs.v.Name)
	}
	for _, ts := range vs.tasks {
		if !ts.lc.In(tPending) {
			return fmt.Errorf("am: SetPartitionRanges on %s after tasks were scheduled", vs.v.Name)
		}
	}
	for _, es := range run.inEdges[vs.v.Name] {
		if es.e.Property.Movement == dag.OneToOne {
			return fmt.Errorf("am: SetPartitionRanges on %s with one-to-one in-edge", vs.v.Name)
		}
	}
	// A one-to-one consumer whose task count is already decided pins ours.
	for _, es := range run.outEdges[vs.v.Name] {
		if es.e.Property.Movement == dag.OneToOne && es.to.parallelism > 0 && es.to.parallelism != n {
			return fmt.Errorf("am: %d ranges on %s conflict with one-to-one consumer %s (%d tasks)",
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
				return fmt.Errorf("am: %d ranges on %s after consumer %s scheduled tasks",
					n, vs.v.Name, es.e.To)
			}
		}
	}

	// Validate-then-commit: dry-build every affected routing table first so
	// a failure cannot leave the DAG half-reconfigured.
	starts = slices.Clone(starts)
	type rebuilt struct {
		es  *edgeState
		mgr dag.EdgeManager
	}
	var commits []rebuilt
	for _, es := range run.inEdges[vs.v.Name] {
		if es.mgr == nil {
			continue
		}
		mgr, err := es.newManager(es.from.parallelism, n, starts)
		if err != nil {
			return fmt.Errorf("am: %d ranges on %s: %w", n, vs.v.Name, err)
		}
		commits = append(commits, rebuilt{es, mgr})
	}
	for _, es := range run.outEdges[vs.v.Name] {
		if es.mgr == nil {
			continue
		}
		mgr, err := es.newManager(n, es.to.parallelism, es.to.ranges)
		if err != nil {
			return fmt.Errorf("am: %d ranges on %s: %w", n, vs.v.Name, err)
		}
		commits = append(commits, rebuilt{es, mgr})
	}

	vs.parallelism = n
	vs.ranges = starts
	vs.tasks = make([]*taskState, n)
	for i := range vs.tasks {
		vs.tasks[i] = newTaskState(run, vs, i)
	}
	for _, c := range commits {
		c.es.mgr = c.mgr
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

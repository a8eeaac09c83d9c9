package am

import (
	"fmt"
	"math"

	"tez/internal/dag"
	"tez/internal/event"
	"tez/internal/library"
	"tez/internal/plugin"
)

// VertexManagerContext is the window a VertexManager gets onto its vertex
// (§3.4). All methods are called — and all callbacks delivered — on the
// DAG's dispatcher goroutine, so implementations need no locking.
type VertexManagerContext interface {
	// VertexName returns the managed vertex.
	VertexName() string
	// Payload is the manager descriptor's opaque configuration.
	Payload() []byte
	// Parallelism is the vertex's current task count (-1 if undecided).
	Parallelism() int
	// SetParallelism changes the task count before any task is scheduled.
	// On vertices consuming scatter-gather edges it may only shrink the
	// count: consumers then read contiguous partition ranges (auto-reduce).
	SetParallelism(n int) error
	// SetParallelismWithEdges additionally swaps the edge manager
	// descriptors of the named in-edges (by source vertex) in the same
	// validated transaction — Tez's full setVertexParallelism.
	SetParallelismWithEdges(n int, edgeManagers map[string]plugin.Descriptor) error
	// ScheduleTasks asks the framework to run the given tasks, driving
	// each through its lifecycle table (PENDING → SCHEDULED, lifecycle.go)
	// and creating the first attempt. Already-scheduled ids are expected
	// repeats and are ignored, so managers may be idempotent.
	ScheduleTasks(tasks []int)
	// SourceVertices lists vertices with an edge into this vertex.
	SourceVertices() []string
	// SourceVertexParallelism returns a source's final task count, or -1
	// if it is not yet decided.
	SourceVertexParallelism(name string) int
	// SourceTasksCompleted returns how many of a source's tasks succeeded.
	SourceTasksCompleted(name string) int
	// SourceMovement returns the edge's connection pattern.
	SourceMovement(name string) dag.MovementType
	// SourceScheduling returns the edge's scheduling type.
	SourceScheduling(name string) dag.SchedulingType
	// SourceTaskCompleted reports whether a specific source task is done
	// (used for per-task 1-1 gating).
	SourceTaskCompleted(name string, task int) bool
	// SetOutEdgePayload replaces the producer-side output payload of the
	// out-edge to destVertex — the runtime IPO reconfiguration hook used
	// by e.g. sample-based range partitioning. It must be called before
	// this vertex's tasks are scheduled.
	SetOutEdgePayload(destVertex string, payload []byte) error
	// SessionConfig exposes the session tuning knobs.
	SessionConfig() Config
	// Fail aborts the DAG with err: for a manager that cannot do its job —
	// statistics it cannot decode, say — and would otherwise decide on
	// numbers it does not have.
	Fail(err error)
}

// VertexManager adapts a vertex's execution at runtime (§3.4): it decides
// when tasks are scheduled, can re-configure parallelism and IO payloads,
// and receives application statistics via VertexManagerEvents.
type VertexManager interface {
	Initialize(ctx VertexManagerContext) error
	// OnVertexStarted fires once the vertex is initialized (parallelism
	// known, initializers done) and the DAG is running.
	OnVertexStarted()
	// OnSourceTaskCompleted fires for every source-task success.
	OnSourceTaskCompleted(srcVertex string, task int)
	// OnVertexManagerEvent delivers application statistics events.
	OnVertexManagerEvent(ev event.VertexManagerEvent)
}

// RegisterVertexManager installs a custom manager under a name usable in
// vertex descriptors.
func RegisterVertexManager(name string, f func() VertexManager) {
	plugin.Register(plugin.KindVertexManager, name, f)
}

// Built-in manager names.
const (
	ShuffleVertexManagerName        = "tez.shuffle_vertex_manager"
	ImmediateStartVertexManagerName = "tez.immediate_start_vertex_manager"
)

func init() {
	RegisterVertexManager(ShuffleVertexManagerName, func() VertexManager { return &ShuffleVertexManager{} })
	RegisterVertexManager(ImmediateStartVertexManagerName, func() VertexManager { return &ImmediateStartVertexManager{} })
}

// newVertexManager instantiates the configured manager or picks the
// built-in default (§3.4: "If a VertexManager is not specified in the DAG,
// then Tez will pick one of these built-in implementations").
func newVertexManager(d plugin.Descriptor) (VertexManager, error) {
	if d.IsZero() {
		return &ShuffleVertexManager{}, nil
	}
	return plugin.New[VertexManager](plugin.KindVertexManager, d)
}

// desiredBytesPerReducer is the auto-parallelism target of the
// ShuffleVertexManager: the shuffle bytes one consumer task should read
// (32 KiB at simulation scale).
const desiredBytesPerReducer = 32 * 1024

// ShuffleVertexManager is the built-in manager of Figure 6. It handles any
// vertex (with or without shuffle inputs):
//
//   - Automatic partition-cardinality estimation: producers report
//     per-partition output sizes in VMStats events; once the slow-start
//     threshold of producers has reported, the manager extrapolates the
//     total shuffle volume and shrinks this vertex's parallelism so that
//     each task reads about desiredBytesPerReducer (consumers then own
//     contiguous partition ranges).
//   - Slow-start scheduling: consumer tasks are scheduled gradually as the
//     source-complete fraction moves across [SlowStartMin, SlowStartMax],
//     overlapping the expensive shuffle fetch with remaining producers.
//   - Gating: one-to-one destinations are scheduled per-task as their
//     source task finishes; broadcast/custom sequential sources must
//     complete entirely; concurrent edges never gate.
type ShuffleVertexManager struct {
	ctx VertexManagerContext

	started     bool
	decided     bool // parallelism decision taken (or not needed)
	statsBytes  int64
	statsSender map[string]bool // src vertex/task dedup for stats
}

// Initialize stores the context.
func (m *ShuffleVertexManager) Initialize(ctx VertexManagerContext) error {
	m.ctx = ctx
	m.statsSender = map[string]bool{}
	return nil
}

// OnVertexStarted re-evaluates scheduling.
func (m *ShuffleVertexManager) OnVertexStarted() { m.started = true; m.reevaluate() }

// OnSourceTaskCompleted re-evaluates scheduling.
func (m *ShuffleVertexManager) OnSourceTaskCompleted(string, int) { m.reevaluate() }

// OnVertexManagerEvent accumulates producer output statistics.
func (m *ShuffleVertexManager) OnVertexManagerEvent(ev event.VertexManagerEvent) {
	key := fmt.Sprintf("%s/%d", ev.SrcVertex, ev.SrcTask)
	if m.statsSender[key] {
		return
	}
	m.statsSender[key] = true
	var stats library.VMStats
	if err := plugin.Decode(ev.Payload, &stats); err != nil {
		// Not ignorable: with no bytes counted the estimate below is zero
		// and the vertex would quietly run as a single task.
		m.ctx.Fail(fmt.Errorf("statistics from %s: %w", key, err))
		return
	}
	for _, s := range stats.PartitionSizes {
		m.statsBytes += s
	}
	m.reevaluate()
}

// sgSources returns the scatter-gather source vertices.
func (m *ShuffleVertexManager) sgSources() []string {
	var out []string
	for _, s := range m.ctx.SourceVertices() {
		if m.ctx.SourceMovement(s) == dag.ScatterGather {
			out = append(out, s)
		}
	}
	return out
}

// sgProgress returns total and completed scatter-gather source tasks.
// ok is false while any source parallelism is unknown.
func (m *ShuffleVertexManager) sgProgress() (total, done int, ok bool) {
	for _, s := range m.sgSources() {
		p := m.ctx.SourceVertexParallelism(s)
		if p < 0 {
			return 0, 0, false
		}
		total += p
		done += m.ctx.SourceTasksCompleted(s)
	}
	return total, done, true
}

// gatesOpen reports whether every sequential non-scatter-gather source is
// fully complete (1-1 handled per task elsewhere).
func (m *ShuffleVertexManager) gatesOpen() bool {
	for _, s := range m.ctx.SourceVertices() {
		if m.ctx.SourceScheduling(s) == dag.Concurrent {
			continue
		}
		switch m.ctx.SourceMovement(s) {
		case dag.ScatterGather, dag.OneToOne:
			continue
		default: // Broadcast, Custom: wait for full completion
			p := m.ctx.SourceVertexParallelism(s)
			if p < 0 || m.ctx.SourceTasksCompleted(s) < p {
				return false
			}
		}
	}
	return true
}

func (m *ShuffleVertexManager) reevaluate() {
	if !m.started {
		return
	}
	cfg := m.ctx.SessionConfig()
	sgTotal, sgDone, sgKnown := m.sgProgress()
	if !sgKnown || !m.gatesOpen() {
		return
	}

	frac := 1.0
	if sgTotal > 0 {
		frac = float64(sgDone) / float64(sgTotal)
	}
	minF, maxF := cfg.SlowStartMin, cfg.SlowStartMax
	if sgTotal > 0 && frac < minF {
		return
	}

	// Parallelism decision point: first time we are allowed to schedule.
	if !m.decided {
		m.decided = true
		if sgTotal > 0 && !cfg.DisableAutoParallelism && sgDone > 0 {
			est := float64(m.statsBytes) / frac // extrapolated total bytes
			want := int(math.Ceil(est / desiredBytesPerReducer))
			if want < 1 {
				want = 1
			}
			if cur := m.ctx.Parallelism(); want < cur {
				// Shrinking fails on an impossible geometry, or when a
				// downstream consumer already scheduled tasks against the
				// current routing tables; the submitted parallelism stands
				// in either case.
				_ = m.ctx.SetParallelism(want)
			}
		}
	}

	p := m.ctx.Parallelism()
	if p <= 0 {
		return
	}

	// How many tasks may run now (slow start)?
	allowed := p
	if sgTotal > 0 && frac < 1.0 && maxF > minF && frac < maxF {
		allowed = int(math.Ceil(float64(p) * (frac - minF) / (maxF - minF)))
		if allowed < 1 {
			allowed = 1
		}
		if allowed > p {
			allowed = p
		}
	}

	// Per-task 1-1 gating: task i needs task i of every sequential 1-1
	// source. Other tasks are gated only by the vertex-level conditions.
	var oneToOne []string
	for _, s := range m.ctx.SourceVertices() {
		if m.ctx.SourceMovement(s) == dag.OneToOne && m.ctx.SourceScheduling(s) != dag.Concurrent {
			oneToOne = append(oneToOne, s)
		}
	}
	var ready []int
	for t := 0; t < p && len(ready) < allowed; t++ {
		ok := true
		for _, s := range oneToOne {
			if !m.ctx.SourceTaskCompleted(s, t) {
				ok = false
				break
			}
		}
		if ok {
			ready = append(ready, t)
		}
	}
	if len(ready) > 0 {
		m.ctx.ScheduleTasks(ready)
	}
}

// ImmediateStartVertexManager schedules every task as soon as the vertex
// starts, regardless of source progress — the out-of-order scheduling mode
// whose deadlocks the framework resolves by preemption (§3.4).
type ImmediateStartVertexManager struct {
	ctx VertexManagerContext
}

// Initialize stores the context.
func (m *ImmediateStartVertexManager) Initialize(ctx VertexManagerContext) error {
	m.ctx = ctx
	return nil
}

// OnVertexStarted schedules everything.
func (m *ImmediateStartVertexManager) OnVertexStarted() {
	p := m.ctx.Parallelism()
	tasks := make([]int, p)
	for i := range tasks {
		tasks[i] = i
	}
	m.ctx.ScheduleTasks(tasks)
}

// OnSourceTaskCompleted is a no-op.
func (m *ImmediateStartVertexManager) OnSourceTaskCompleted(string, int) {}

// OnVertexManagerEvent is a no-op.
func (m *ImmediateStartVertexManager) OnVertexManagerEvent(event.VertexManagerEvent) {}

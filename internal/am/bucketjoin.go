package am

import (
	"fmt"
	"strconv"

	"tez/internal/dag"
	"tez/internal/event"
	"tez/internal/library"
	"tez/internal/plugin"
)

// BucketGroupingVertexManagerName implements the control half of §5.2's
// Dynamically Partitioned Hash Join: producers bucket their output into
// many partitions and report per-partition sizes; once every producer has
// reported, this manager packs the buckets into balanced groups, shrinks
// the vertex to one task per group, and installs the grouped-shuffle
// custom edge (library.GroupedShuffleEdgeManagerName) that routes each
// bucket set to its consumer — all in one validated reconfiguration.
const BucketGroupingVertexManagerName = "tez.bucket_grouping_vertex_manager"

func init() {
	RegisterVertexManager(BucketGroupingVertexManagerName, func() VertexManager {
		return &BucketGroupingVertexManager{}
	})
}

// BucketGroupingConfig is the manager's payload.
type BucketGroupingConfig struct {
	// TargetBytesPerTask is the packing target for one consumer's buckets.
	TargetBytesPerTask int64
}

// BucketGroupingVertexManager groups runtime-sized buckets into consumer
// tasks.
type BucketGroupingVertexManager struct {
	ctx     VertexManagerContext
	cfg     BucketGroupingConfig
	started bool
	done    bool

	// sizes accumulates per-partition bytes across all custom in-edge
	// producers; reported tracks which producer tasks have sent stats.
	sizes    []int64
	reported map[string]bool
}

// Initialize decodes the packing target.
func (m *BucketGroupingVertexManager) Initialize(ctx VertexManagerContext) error {
	m.ctx = ctx
	m.reported = map[string]bool{}
	if len(ctx.Payload()) > 0 {
		if err := plugin.Decode(ctx.Payload(), &m.cfg); err != nil {
			return err
		}
	}
	if m.cfg.TargetBytesPerTask <= 0 {
		m.cfg.TargetBytesPerTask = 32 * 1024
	}
	return nil
}

// OnVertexStarted arms the manager.
func (m *BucketGroupingVertexManager) OnVertexStarted() { m.started = true; m.maybeGo() }

// OnSourceTaskCompleted re-evaluates readiness.
func (m *BucketGroupingVertexManager) OnSourceTaskCompleted(string, int) { m.maybeGo() }

// OnVertexManagerEvent accumulates per-bucket sizes.
func (m *BucketGroupingVertexManager) OnVertexManagerEvent(ev event.VertexManagerEvent) {
	key := ev.SrcVertex + "/" + strconv.Itoa(ev.SrcTask)
	if m.reported[key] {
		return
	}
	m.reported[key] = true
	var stats library.VMStats
	if err := plugin.Decode(ev.Payload, &stats); err != nil {
		m.ctx.Fail(fmt.Errorf("statistics from %s: %w", key, err))
		return
	}
	if len(m.sizes) < len(stats.PartitionSizes) {
		grown := make([]int64, len(stats.PartitionSizes))
		copy(grown, m.sizes)
		m.sizes = grown
	}
	for i, s := range stats.PartitionSizes {
		m.sizes[i] += s
	}
	m.maybeGo()
}

// customSources lists the in-edges this manager owns.
func (m *BucketGroupingVertexManager) customSources() []string {
	var out []string
	for _, s := range m.ctx.SourceVertices() {
		if m.ctx.SourceMovement(s) == dag.CustomMovement {
			out = append(out, s)
		}
	}
	return out
}

// maybeGo reconfigures and schedules once every custom-edge producer task
// has completed (all bucket sizes are then known exactly).
func (m *BucketGroupingVertexManager) maybeGo() {
	if m.done || !m.started {
		return
	}
	srcs := m.customSources()
	if len(srcs) == 0 {
		return
	}
	for _, s := range srcs {
		p := m.ctx.SourceVertexParallelism(s)
		if p < 0 || m.ctx.SourceTasksCompleted(s) < p {
			return
		}
	}
	if len(m.sizes) == 0 {
		return
	}
	m.done = true

	groups := library.PackPartitions(m.sizes, m.cfg.TargetBytesPerTask)
	managers := map[string]plugin.Descriptor{}
	for _, s := range srcs {
		managers[s] = plugin.Desc(library.GroupedShuffleEdgeManagerName,
			library.GroupedShuffleConfig{Groups: groups})
	}
	if err := m.ctx.SetParallelismWithEdges(len(groups), managers); err != nil {
		// Not ignorable: the vertex's tasks would never be scheduled.
		m.ctx.Fail(fmt.Errorf("regrouping %d buckets into %d tasks: %w", len(m.sizes), len(groups), err))
		return
	}
	tasks := make([]int, len(groups))
	for i := range tasks {
		tasks[i] = i
	}
	m.ctx.ScheduleTasks(tasks)
}

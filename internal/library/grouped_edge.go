package library

import (
	"fmt"

	"tez/internal/dag"
	"tez/internal/plugin"
)

// GroupedShuffleEdgeManagerName is a custom EdgeManager (§3.1's pluggable
// connection pattern) that routes an arbitrary, runtime-decided set of
// partitions to each consumer task. It is the routing half of Hive's
// Dynamically Partitioned Hash Join (§5.2): "Hive uses a custom vertex
// manager to determine which subsets of data shards to join with each
// other and creates a custom edge that routes the appropriate shards to
// their consumer tasks." The grouping itself is computed by a
// VertexManager (see am.BucketGroupingVertexManager) from the partition
// sizes producers report, and installed by re-configuring this edge's
// payload before the consumers are scheduled.
const GroupedShuffleEdgeManagerName = "tez.grouped_shuffle_edge"

func init() {
	dag.RegisterEdgeManager(GroupedShuffleEdgeManagerName, func() dag.EdgeManager {
		return &GroupedShuffleEdgeManager{}
	})
}

// GroupedShuffleConfig assigns every physical partition to exactly one
// consumer task: consumer t reads partitions Groups[t] (in order) from
// every producer.
type GroupedShuffleConfig struct {
	Groups [][]int
}

// GroupedShuffleEdgeManager routes partition p of every source task to
// the consumer whose group contains p. Physical inputs at consumer t are
// laid out partition-major, like the built-in scatter-gather.
type GroupedShuffleEdgeManager struct {
	ctx    dag.EdgeContext
	groups [][]int
	// destOf[p] / slotOf[p]: owning consumer and position within group.
	destOf map[int]int
	slotOf map[int]int
}

// Initialize decodes the group assignment. An empty payload defaults to
// the identity assignment (partition p → consumer p), which makes the
// edge usable before a VertexManager re-configures it.
func (m *GroupedShuffleEdgeManager) Initialize(ctx dag.EdgeContext) error {
	m.ctx = ctx
	var cfg GroupedShuffleConfig
	if len(ctx.Payload) > 0 {
		if err := plugin.Decode(ctx.Payload, &cfg); err != nil {
			return err
		}
	}
	if len(cfg.Groups) == 0 {
		cfg.Groups = make([][]int, ctx.DestParallelism)
		for i := range cfg.Groups {
			cfg.Groups[i] = []int{i}
		}
	}
	if len(cfg.Groups) != ctx.DestParallelism {
		return fmt.Errorf("library: grouped edge with %d groups for %d consumers",
			len(cfg.Groups), ctx.DestParallelism)
	}
	parts := ctx.BasePartitions
	if parts <= 0 {
		parts = ctx.DestParallelism
	}
	m.groups = cfg.Groups
	m.destOf = make(map[int]int, parts)
	m.slotOf = make(map[int]int, parts)
	covered := 0
	for t, g := range cfg.Groups {
		for slot, p := range g {
			if p < 0 || p >= parts {
				return fmt.Errorf("library: grouped edge: partition %d out of %d", p, parts)
			}
			if _, dup := m.destOf[p]; dup {
				return fmt.Errorf("library: grouped edge: partition %d assigned twice", p)
			}
			m.destOf[p] = t
			m.slotOf[p] = slot
			covered++
		}
	}
	if covered != parts {
		return fmt.Errorf("library: grouped edge covers %d of %d partitions", covered, parts)
	}
	return nil
}

// NumSourceTaskPhysicalOutputs is the partition count.
func (m *GroupedShuffleEdgeManager) NumSourceTaskPhysicalOutputs(int) int {
	if m.ctx.BasePartitions > 0 {
		return m.ctx.BasePartitions
	}
	return m.ctx.DestParallelism
}

// NumDestinationTaskPhysicalInputs is |group| × source tasks.
func (m *GroupedShuffleEdgeManager) NumDestinationTaskPhysicalInputs(destTask int) int {
	return len(m.groups[destTask]) * m.ctx.SrcParallelism
}

// Route sends partition p of srcTask to its owning consumer.
func (m *GroupedShuffleEdgeManager) Route(srcTask, srcOutputIndex int) map[int]int {
	t := m.destOf[srcOutputIndex]
	slot := m.slotOf[srcOutputIndex]
	return map[int]int{t: slot*m.ctx.SrcParallelism + srcTask}
}

// PackPartitions greedily groups partitions so every group's total size
// stays near targetBytes: the "which subsets of data shards to join with
// each other" decision of the dynamically partitioned hash join. Oversized
// partitions get a group of their own; partitions are kept in ascending
// order within a group (deterministic).
func PackPartitions(sizes []int64, targetBytes int64) [][]int {
	if targetBytes <= 0 {
		targetBytes = 1
	}
	var groups [][]int
	var cur []int
	var curBytes int64
	for p, sz := range sizes {
		if len(cur) > 0 && curBytes+sz > targetBytes {
			groups = append(groups, cur)
			cur, curBytes = nil, 0
		}
		cur = append(cur, p)
		curBytes += sz
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	if len(groups) == 0 {
		groups = [][]int{{}}
	}
	return groups
}

package dag

import (
	"fmt"
	"slices"

	"tez/internal/plugin"
)

// EdgeContext carries the information an EdgeManager routes with. The AM
// rebuilds managers whenever a reconfiguration (e.g. the
// ShuffleVertexManager shrinking destination parallelism) changes any
// field.
type EdgeContext struct {
	SrcParallelism  int
	DestParallelism int
	// BasePartitions is the number of physical partitions each source task
	// produces on a scatter-gather edge. It normally equals the
	// destination parallelism the DAG was submitted with; after an
	// auto-parallelism reconfiguration the (smaller) destination task set
	// divides these partitions among themselves.
	BasePartitions int
	// Starts are the destination's partition ranges on a scatter-gather
	// edge: task t reads partitions [Starts[t], Starts[t+1]), the last
	// task up to BasePartitions. Nil means one partition per task.
	Starts []int
	// Payload configures custom managers.
	Payload []byte
}

// EdgeManager is the pluggable routing table of an edge (§3.1): it decides
// physical input/output counts and routes a producer's physical output to
// consumer task inputs. Implementations must be deterministic.
type EdgeManager interface {
	Initialize(ctx EdgeContext) error
	// NumSourceTaskPhysicalOutputs is how many physical outputs each
	// source task produces.
	NumSourceTaskPhysicalOutputs(srcTask int) int
	// NumDestinationTaskPhysicalInputs is how many physical inputs the
	// destination task consumes.
	NumDestinationTaskPhysicalInputs(destTask int) int
	// Route maps (srcTask, srcOutputIndex) to destination tasks and the
	// physical input index at each destination.
	Route(srcTask, srcOutputIndex int) map[int]int
}

// NewEdgeManager instantiates the manager for an edge property: a built-in
// for the three standard movements, or the named plugin for custom edges.
func NewEdgeManager(p EdgeProperty, ctx EdgeContext) (EdgeManager, error) {
	var m EdgeManager
	switch p.Movement {
	case OneToOne:
		m = &OneToOneEdgeManager{}
	case Broadcast:
		m = &BroadcastEdgeManager{}
	case ScatterGather:
		m = &ScatterGatherEdgeManager{}
	case CustomMovement:
		var err error
		if m, err = plugin.New[EdgeManager](plugin.KindEdgeManager, p.Manager); err != nil {
			return nil, err
		}
		ctx.Payload = p.Manager.Payload
	default:
		return nil, fmt.Errorf("dag: unknown movement %v", p.Movement)
	}
	if err := m.Initialize(ctx); err != nil {
		return nil, err
	}
	return m, nil
}

// RegisterEdgeManager installs a custom edge manager factory.
func RegisterEdgeManager(name string, factory func() EdgeManager) {
	plugin.Register(plugin.KindEdgeManager, name, factory)
}

// OneToOneEdgeManager connects source task i to destination task i.
type OneToOneEdgeManager struct{ ctx EdgeContext }

// Initialize validates equal parallelism.
func (m *OneToOneEdgeManager) Initialize(ctx EdgeContext) error {
	if ctx.SrcParallelism != ctx.DestParallelism {
		return fmt.Errorf("dag: one-to-one edge with src=%d dest=%d tasks", ctx.SrcParallelism, ctx.DestParallelism)
	}
	m.ctx = ctx
	return nil
}

func (m *OneToOneEdgeManager) NumSourceTaskPhysicalOutputs(int) int     { return 1 }
func (m *OneToOneEdgeManager) NumDestinationTaskPhysicalInputs(int) int { return 1 }

// Route sends output 0 of task i to input 0 of task i.
func (m *OneToOneEdgeManager) Route(srcTask, srcOutputIndex int) map[int]int {
	return map[int]int{srcTask: 0}
}

// BroadcastEdgeManager sends each source task's single output to every
// destination task; destination input index i carries source task i.
type BroadcastEdgeManager struct{ ctx EdgeContext }

func (m *BroadcastEdgeManager) Initialize(ctx EdgeContext) error { m.ctx = ctx; return nil }

func (m *BroadcastEdgeManager) NumSourceTaskPhysicalOutputs(int) int { return 1 }

func (m *BroadcastEdgeManager) NumDestinationTaskPhysicalInputs(int) int {
	return m.ctx.SrcParallelism
}

// Route fans output 0 of srcTask out to all destinations at input srcTask.
func (m *BroadcastEdgeManager) Route(srcTask, srcOutputIndex int) map[int]int {
	out := make(map[int]int, m.ctx.DestParallelism)
	for d := 0; d < m.ctx.DestParallelism; d++ {
		out[d] = srcTask
	}
	return out
}

// ScatterGatherEdgeManager implements the shuffle pattern. Every source
// task produces BasePartitions physical outputs (partitions). Destination
// tasks own contiguous partition ranges — one partition each in the normal
// case, the ranges of EdgeContext.Starts when the ShuffleVertexManager has
// shrunk the destination parallelism below the partition count
// (auto-reduce, Figure 6).
//
// Physical inputs at destination d are laid out partition-major:
// for the j-th partition owned by d and source task s, the input index is
// j*SrcParallelism + s.
type ScatterGatherEdgeManager struct {
	ctx    EdgeContext
	parts  int   // base partitions
	starts []int // nil: destination d owns partition d
}

// Initialize validates the geometry: without starts one partition per
// destination task; with them, len(Starts) ranges from partition 0, each
// starting past the last and inside [0, BasePartitions).
func (m *ScatterGatherEdgeManager) Initialize(ctx EdgeContext) error {
	m.parts = ctx.BasePartitions
	if m.parts <= 0 {
		m.parts = ctx.DestParallelism
	}
	if ctx.DestParallelism <= 0 {
		return fmt.Errorf("dag: scatter-gather with %d dest tasks", ctx.DestParallelism)
	}
	starts := ctx.Starts
	if starts == nil {
		if ctx.DestParallelism != m.parts {
			return fmt.Errorf("dag: scatter-gather with %d dest tasks for %d partitions and no ranges", ctx.DestParallelism, m.parts)
		}
	} else {
		if len(starts) != ctx.DestParallelism {
			return fmt.Errorf("dag: scatter-gather with %d ranges for %d dest tasks", len(starts), ctx.DestParallelism)
		}
		if starts[0] != 0 {
			return fmt.Errorf("dag: scatter-gather ranges start at partition %d", starts[0])
		}
		for d := 1; d < len(starts); d++ {
			if starts[d] <= starts[d-1] || starts[d] >= m.parts {
				return fmt.Errorf("dag: scatter-gather range %d starts at %d after %d, of %d partitions", d, starts[d], starts[d-1], m.parts)
			}
		}
	}
	m.ctx = ctx
	m.starts = starts
	return nil
}

// partitionRange returns [start, end) of partitions owned by dest task d.
func (m *ScatterGatherEdgeManager) partitionRange(d int) (int, int) {
	if m.starts == nil {
		return d, d + 1
	}
	if d+1 < len(m.starts) {
		return m.starts[d], m.starts[d+1]
	}
	return m.starts[d], m.parts
}

// destOfPartition inverts partitionRange: the last range starting at or
// before p.
func (m *ScatterGatherEdgeManager) destOfPartition(p int) int {
	if m.starts == nil {
		return p
	}
	d, found := slices.BinarySearch(m.starts, p)
	if !found {
		d--
	}
	return d
}

func (m *ScatterGatherEdgeManager) NumSourceTaskPhysicalOutputs(int) int { return m.parts }

func (m *ScatterGatherEdgeManager) NumDestinationTaskPhysicalInputs(destTask int) int {
	s, e := m.partitionRange(destTask)
	return (e - s) * m.ctx.SrcParallelism
}

// Route sends partition p of srcTask to the destination owning p.
func (m *ScatterGatherEdgeManager) Route(srcTask, srcOutputIndex int) map[int]int {
	d := m.destOfPartition(srcOutputIndex)
	start, _ := m.partitionRange(d)
	j := srcOutputIndex - start
	return map[int]int{d: j*m.ctx.SrcParallelism + srcTask}
}

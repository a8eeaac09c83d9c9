package dag

import (
	"fmt"

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
	// SourceTaskOfInput inverts Route for input-error handling: which
	// source task produced the data arriving at (destTask, inputIndex).
	SourceTaskOfInput(destTask, inputIndex int) int
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

// SourceTaskOfInput is the identity.
func (m *OneToOneEdgeManager) SourceTaskOfInput(destTask, _ int) int { return destTask }

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

// SourceTaskOfInput: input index == source task.
func (m *BroadcastEdgeManager) SourceTaskOfInput(_, inputIndex int) int { return inputIndex }

// ScatterGatherEdgeManager implements the shuffle pattern. Every source
// task produces BasePartitions physical outputs (partitions). Destination
// tasks own contiguous partition ranges — one partition each in the normal
// case, several when the ShuffleVertexManager has shrunk the destination
// parallelism below the partition count (auto-reduce, Figure 6).
//
// Physical inputs at destination d are laid out partition-major:
// for the j-th partition owned by d and source task s, the input index is
// j*SrcParallelism + s.
type ScatterGatherEdgeManager struct {
	ctx   EdgeContext
	parts int // base partitions
}

// Initialize validates the geometry.
func (m *ScatterGatherEdgeManager) Initialize(ctx EdgeContext) error {
	m.parts = ctx.BasePartitions
	if m.parts <= 0 {
		m.parts = ctx.DestParallelism
	}
	if ctx.DestParallelism > m.parts {
		return fmt.Errorf("dag: scatter-gather with %d dest tasks > %d partitions", ctx.DestParallelism, m.parts)
	}
	if ctx.DestParallelism <= 0 {
		return fmt.Errorf("dag: scatter-gather with %d dest tasks", ctx.DestParallelism)
	}
	m.ctx = ctx
	return nil
}

// partitionRange returns [start, end) of partitions owned by dest task d:
// an even split with the first (parts % D) tasks taking one extra.
func (m *ScatterGatherEdgeManager) partitionRange(d int) (int, int) {
	D := m.ctx.DestParallelism
	k, rem := m.parts/D, m.parts%D
	var start int
	if d < rem {
		start = d * (k + 1)
		return start, start + k + 1
	}
	start = rem*(k+1) + (d-rem)*k
	return start, start + k
}

// destOfPartition inverts partitionRange.
func (m *ScatterGatherEdgeManager) destOfPartition(p int) int {
	D := m.ctx.DestParallelism
	k, rem := m.parts/D, m.parts%D
	boundary := rem * (k + 1)
	if p < boundary {
		return p / (k + 1)
	}
	if k == 0 {
		return D - 1 // unreachable when dest <= parts, defensive
	}
	return rem + (p-boundary)/k
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

// SourceTaskOfInput inverts the partition-major layout.
func (m *ScatterGatherEdgeManager) SourceTaskOfInput(_, inputIndex int) int {
	return inputIndex % m.ctx.SrcParallelism
}

package library

import (
	"fmt"

	"tez/internal/event"
	"tez/internal/plugin"
	"tez/internal/runtime"
	"tez/internal/shuffle"
)

// UnorderedPartitionedOutputName is the partitioned-but-unsorted map-side
// transport (Tez's UnorderedPartitionedKVOutput): rows are bucketed by the
// partitioner without any ordering guarantee, for consumers that do not
// need sorted/grouped input (e.g. repartitioning jobs). Pair it with
// UnorderedInputName on a scatter-gather edge.
const UnorderedPartitionedOutputName = "tez.unordered_partitioned_output"

func init() {
	runtime.RegisterOutput(UnorderedPartitionedOutputName, func() runtime.Output {
		return &UnorderedPartitionedKVOutput{}
	})
}

// UnorderedPartitionedKVOutput buckets pairs by the configured partitioner
// and registers the unsorted partitions with the shuffle service.
type UnorderedPartitionedKVOutput struct {
	ctx         *runtime.Context
	cfg         OrderedPartitionedConfig // same config shape (partitioner + stats)
	partitioner Partitioner
	parts       [][]byte
}

// Initialize decodes configuration and prepares partition buffers.
func (o *UnorderedPartitionedKVOutput) Initialize(ctx *runtime.Context) error {
	o.ctx = ctx
	if len(ctx.Payload) > 0 {
		if err := plugin.Decode(ctx.Payload, &o.cfg); err != nil {
			return err
		}
	}
	p, err := o.cfg.Partitioner.New()
	if err != nil {
		return err
	}
	o.partitioner = p
	if ctx.PhysicalCount <= 0 {
		return fmt.Errorf("library: unordered partitioned output with %d partitions", ctx.PhysicalCount)
	}
	o.parts = make([][]byte, ctx.PhysicalCount)
	return nil
}

// Writer returns a runtime.KVWriter bucketing into partitions.
func (o *UnorderedPartitionedKVOutput) Writer() (any, error) {
	return kvWriterFunc(func(k, v []byte) error {
		p := o.partitioner.Partition(k, len(o.parts))
		if p < 0 || p >= len(o.parts) {
			return fmt.Errorf("library: partitioner sent a key to partition %d of %d", p, len(o.parts))
		}
		o.parts[p] = AppendRecord(o.parts[p], k, v)
		return nil
	}), nil
}

// Close registers and announces the partitions.
func (o *UnorderedPartitionedKVOutput) Close() ([]event.Event, error) {
	id := shuffle.OutputID{
		DAG:     o.ctx.Meta.DAG,
		Vertex:  o.ctx.Meta.Vertex,
		Name:    o.ctx.Name,
		Task:    o.ctx.Meta.Task,
		Attempt: o.ctx.Meta.Attempt,
	}
	if err := o.ctx.Services.Shuffle.Register(o.ctx.Services.Node, id, o.parts, o.ctx.Services.Token); err != nil {
		return nil, err
	}
	events := make([]event.Event, 0, len(o.parts)+1)
	sizes := make([]int64, len(o.parts))
	for i, p := range o.parts {
		sizes[i] = int64(len(p))
		events = append(events, event.DataMovement{
			SrcVertex:      o.ctx.Meta.Vertex,
			SrcTask:        o.ctx.Meta.Task,
			SrcAttempt:     o.ctx.Meta.Attempt,
			SrcOutputIndex: i,
			TargetVertex:   o.ctx.Name,
			Payload:        plugin.MustEncode(DMInfo{ID: id, Partition: i, Size: sizes[i]}),
		})
	}
	if !o.cfg.NoStats {
		events = append(events, event.VertexManagerEvent{
			TargetVertex: o.ctx.Name,
			SrcVertex:    o.ctx.Meta.Vertex,
			SrcTask:      o.ctx.Meta.Task,
			Payload:      plugin.MustEncode(VMStats{PartitionSizes: sizes}),
		})
	}
	return events, nil
}

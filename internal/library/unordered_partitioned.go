package library

import (
	"fmt"

	"tez/internal/event"
	"tez/internal/plugin"
	"tez/internal/runtime"
)

// Registered names of the unsorted outputs. UnorderedPartitionedOutputName
// is the partitioned-but-unsorted map-side transport (Tez's
// UnorderedPartitionedKVOutput): rows are bucketed by the partitioner
// without any ordering guarantee, for consumers that do not need
// sorted/grouped input (e.g. repartitioning jobs). UnorderedOutputName is
// the same output in its one-partition form — the transport of broadcast
// and one-to-one edges, where every consumer reads the whole output.
const (
	UnorderedOutputName            = "tez.unordered_output"
	UnorderedPartitionedOutputName = "tez.unordered_partitioned_output"
)

func init() {
	runtime.RegisterOutput(UnorderedOutputName, func() runtime.Output {
		return &UnorderedPartitionedKVOutput{single: true}
	})
	runtime.RegisterOutput(UnorderedPartitionedOutputName, func() runtime.Output {
		return &UnorderedPartitionedKVOutput{}
	})
}

// UnorderedPartitionedKVOutput buckets pairs by the configured partitioner
// and registers the unsorted partitions with the shuffle service. In the
// one-partition form it reads no configuration, asks no partitioner and
// sends no statistics: there is one bucket whatever the edge manager's
// physical count, and no consumer parallelism to estimate from it.
type UnorderedPartitionedKVOutput struct {
	ctx         *runtime.Context
	single      bool
	cfg         OrderedPartitionedConfig // Partitioner only
	partitioner Partitioner
	parts       [][]byte
}

// Initialize decodes configuration and prepares partition buffers.
func (o *UnorderedPartitionedKVOutput) Initialize(ctx *runtime.Context) error {
	o.ctx = ctx
	if o.single {
		o.parts = make([][]byte, 1)
		return nil
	}
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
	if o.single {
		return kvWriterFunc(func(k, v []byte) error {
			o.parts[0] = AppendRecord(o.parts[0], k, v)
			return nil
		}), nil
	}
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
	return announce(o.ctx, o.parts, nil, "", !o.single)
}

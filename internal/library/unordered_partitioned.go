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
// and registers the unsorted partitions with the shuffle service, each
// through the edge's wire block codec as the ordered output resolves it.
// In the one-partition form it reads no configuration, asks no
// partitioner, applies no codec and sends no statistics: there is one
// bucket whatever the edge manager's physical count, and no consumer
// parallelism to estimate from it.
type UnorderedPartitionedKVOutput struct {
	ctx         *runtime.Context
	single      bool
	cfg         OrderedPartitionedConfig // Partitioner and Codec only
	partitioner Partitioner
	codec       BlockCodec
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
	if o.codec, err = ResolveBlockCodec(resolveShuffleKnobs(o.cfg, ctx.Services).codec); err != nil {
		return err
	}
	if ctx.PhysicalCount <= 0 {
		return fmt.Errorf("library: unordered partitioned output with %d partitions", ctx.PhysicalCount)
	}
	o.parts = make([][]byte, ctx.PhysicalCount)
	return nil
}

// Writer returns a runtime.KVWriter bucketing into partitions: in the
// partitioned form a PartitionedWriter, whose Write partitions each pair by
// its key.
func (o *UnorderedPartitionedKVOutput) Writer() (any, error) {
	if o.single {
		return kvWriterFunc(func(k, v []byte) error {
			o.appendRecord(0, k, v)
			return nil
		}), nil
	}
	return PartitionedWriter{o: o}, nil
}

// PartitionedWriter writes to a partitioned UnorderedPartitionedKVOutput.
// Besides Write it lets a producer partition its rows itself and write
// each partition's share of them as one record: relop's hash-partitioned
// edges write one column batch per partition that way.
type PartitionedWriter struct{ o *UnorderedPartitionedKVOutput }

// Write appends (k, v) to the partition of k.
func (w PartitionedWriter) Write(k, v []byte) error {
	return w.WritePartition(w.Partition(k), k, v)
}

// Partition is the partition the output's partitioner gives key.
func (w PartitionedWriter) Partition(key []byte) int {
	return w.o.partitioner.Partition(key, len(w.o.parts))
}

// WritePartition appends (k, v) to partition p.
func (w PartitionedWriter) WritePartition(p int, k, v []byte) error {
	parts := w.o.parts
	if p < 0 || p >= len(parts) {
		return fmt.Errorf("library: write to partition %d of %d", p, len(parts))
	}
	w.o.appendRecord(p, k, v)
	return nil
}

// appendRecord appends (k, v) to partition p, whose buffer comes from the
// run-buffer pool: Close registers the partitions, which copies them, and
// puts the buffers back.
func (o *UnorderedPartitionedKVOutput) appendRecord(p int, k, v []byte) {
	if o.parts[p] == nil {
		o.parts[p] = getRunBuf()
	}
	o.parts[p] = AppendRecord(o.parts[p], k, v)
}

// Close registers and announces the partitions, encoded by the codec
// when there is one.
func (o *UnorderedPartitionedKVOutput) Close() ([]event.Event, error) {
	defer func() {
		for p, buf := range o.parts {
			putRunBuf(buf)
			o.parts[p] = nil
		}
	}()
	if o.codec == nil {
		return announce(o.ctx, o.parts, nil, nil, "", !o.single)
	}
	wire := make([][]byte, len(o.parts))
	rawSizes := make([]int64, len(o.parts))
	for p, raw := range o.parts {
		rawSizes[p] = int64(len(raw))
		var err error
		if wire[p], err = encodeBlock(o.codec, raw); err != nil {
			return nil, err
		}
	}
	return announce(o.ctx, wire, rawSizes, nil, o.codec.Name(), true)
}

package library

import (
	"tez/internal/dag"
	"tez/internal/plugin"
)

// Composing a DAG (§3.1). An edge is a movement pattern plus an output and
// an input class that agree on what crosses it; a source is an input class
// plus the initializer that assigns its splits; a sink is an output class
// plus the committer that publishes it. Which classes pair up, under which
// movement, configured by which payload type, is stated here and nowhere
// else: every engine composes its DAGs from these constructors, so a
// change to what rides an edge is a change to this file. A default edge
// carries no payload at all. A caller with its own initializer replaces
// .Initializer on the DataSource it gets back; a custom movement sets
// .Movement and .Manager on the EdgeProperty; only an application with its
// own IO classes writes the descriptor pair out.

// OrderedEdge is the shuffle: a scatter-gather edge whose producers sort
// and partition (OrderedPartitionedKVOutput) and whose consumers merge the
// sorted runs into grouped keys (OrderedGroupedKVInput).
func OrderedEdge(cfg OrderedPartitionedConfig) dag.EdgeProperty {
	out := plugin.Descriptor{Name: OrderedPartitionedOutputName}
	if !cfg.isZero() {
		out.Payload = plugin.MustEncode(cfg)
	}
	return dag.EdgeProperty{
		Movement: dag.ScatterGather,
		Output:   out,
		Input:    plugin.Descriptor{Name: OrderedGroupedInputName},
	}
}

// UnorderedPartitionedEdge is a scatter-gather edge without the sort:
// producers bucket by hash, consumers read their bucket of every producer
// in no particular order (repartitioning).
func UnorderedPartitionedEdge() dag.EdgeProperty {
	return unorderedEdge(dag.ScatterGather, UnorderedPartitionedOutputName)
}

// BroadcastEdge sends every producer's whole output to every consumer.
func BroadcastEdge() dag.EdgeProperty { return unorderedEdge(dag.Broadcast, UnorderedOutputName) }

// OneToOneEdge sends producer task i's whole output to consumer task i.
func OneToOneEdge() dag.EdgeProperty { return unorderedEdge(dag.OneToOne, UnorderedOutputName) }

func unorderedEdge(m dag.MovementType, output string) dag.EdgeProperty {
	return dag.EdgeProperty{
		Movement: m,
		Output:   plugin.Descriptor{Name: output},
		Input:    plugin.Descriptor{Name: UnorderedInputName},
	}
}

// DFSSource reads record files: SplitInitializer cuts paths into splits
// (splitSize > 0: one task per split of that size; 0: splits grouped by
// bytes and locality, see SplitSourceConfig) and DFSSourceInput reads the
// splits a task is assigned.
func DFSSource(name string, paths []string, splitSize int64) dag.DataSource {
	return dag.DataSource{
		Name:  name,
		Input: plugin.Descriptor{Name: DFSSourceInputName},
		Initializer: plugin.Desc(SplitInitializerName, SplitSourceConfig{
			Paths:            paths,
			DesiredSplitSize: splitSize,
		}),
	}
}

// DFSSink writes one part file per task under path: DFSSinkOutput writes
// each attempt's temporary file and DFSCommitter, configured with the same
// path, publishes one attempt per task.
func DFSSink(name, path string) dag.DataSink {
	cfg := plugin.MustEncode(DFSSinkConfig{Path: path})
	return dag.DataSink{
		Name:      name,
		Output:    plugin.Descriptor{Name: DFSSinkOutputName, Payload: cfg},
		Committer: plugin.Descriptor{Name: DFSCommitterName, Payload: cfg},
	}
}

// isZero reports whether every field has its default, in which case the
// output needs no payload.
func (c OrderedPartitionedConfig) isZero() bool {
	return c.Partitioner.Kind == "" && len(c.Partitioner.Points) == 0 &&
		c.Combiner == "" && c.Codec == "" && c.SortBytes == 0
}

package relop

import (
	"tez/internal/library"
	"tez/internal/plugin"
	"tez/internal/row"
	"tez/internal/runtime"
)

// PruneInitializerName is the dynamic-partition-pruning initializer of
// §3.5: before the scan vertex's tasks run, it waits for
// InputInitializerEvents carrying the relevant join-key values from the
// tasks of another vertex, keeps only the partitioned files whose
// partition value occurs in that set, and then performs normal split
// calculation on the survivors.
const PruneInitializerName = "relop.prune_initializer"

func init() {
	runtime.RegisterInitializer(PruneInitializerName, func() runtime.Initializer {
		return pruneInitializer{}
	})
}

// PruneInitializerConfig is the initializer's opaque payload.
type PruneInitializerConfig struct {
	// Files and PartitionVals describe the partitioned table: file i holds
	// the rows whose partition column equals PartitionVals[i].
	Files         []string
	PartitionVals []row.Value
	// SourceVertex produces the key values; an event from each of its
	// tasks is awaited.
	SourceVertex     string
	DesiredSplitSize int64
}

type pruneInitializer struct{}

// Run waits for the pruning events, filters the file list, and hands the
// survivors to the library's split calculation.
func (pruneInitializer) Run(ctx *runtime.InitializerContext) (*runtime.InitializerResult, error) {
	var cfg PruneInitializerConfig
	if err := plugin.Decode(ctx.Payload, &cfg); err != nil {
		return nil, err
	}
	expect := 1
	if ctx.VertexParallelism != nil {
		if p := ctx.VertexParallelism(cfg.SourceVertex); p > 0 {
			expect = p
		}
	}
	// Count source tasks, not events: a source task that succeeds again
	// after re-execution sends its values again, and stopping on the
	// duplicate would prune partitions a task not yet heard from needs.
	wanted := map[string]bool{}
	heard := map[int]bool{}
	for len(heard) < expect {
		ev, ok := ctx.Events.Get()
		if !ok {
			break // DAG torn down
		}
		heard[ev.SrcTask] = true
		var pv PruneValues
		if err := plugin.Decode(ev.Payload, &pv); err != nil {
			return nil, err
		}
		for _, v := range pv.Values {
			wanted[string(row.EncodeKey(nil, v))] = true
		}
	}

	var keep []string
	for i, f := range cfg.Files {
		if i < len(cfg.PartitionVals) {
			key := string(row.EncodeKey(nil, cfg.PartitionVals[i]))
			if !wanted[key] {
				continue
			}
		}
		keep = append(keep, f)
	}

	return library.SplitTasks(ctx.FS, keep, cfg.DesiredSplitSize)
}

package relop

import (
	"reflect"
	"testing"

	"tez/internal/dfs"
	"tez/internal/event"
	"tez/internal/library"
	"tez/internal/mailbox"
	"tez/internal/plugin"
	"tez/internal/row"
	"tez/internal/runtime"
)

// TestPruneInitializerCountsSourceTasks: the source vertex has three tasks
// and task 0 is heard twice — it succeeded again after re-execution —
// before tasks 1 and 2. The initializer must wait for task 2 and keep the
// partition only task 2 names; the partition no task names is pruned.
func TestPruneInitializerCountsSourceTasks(t *testing.T) {
	fs := dfs.New(dfs.Config{})
	fs.AddNode("n1", "r1")
	files := []string{"/t/p=a", "/t/p=b", "/t/p=c", "/t/p=d"}
	for _, f := range files {
		if err := fs.WriteFile(f, "n1", []byte("rows of "+f)); err != nil {
			t.Fatal(err)
		}
	}
	events := mailbox.New[event.InputInitializerEvent]()
	for _, e := range []struct {
		task int
		val  string
	}{{0, "a"}, {0, "a"}, {1, "b"}, {2, "c"}} {
		events.Put(event.InputInitializerEvent{
			TargetVertex: "scan", TargetDataSource: "t", SrcVertex: "dim", SrcTask: e.task,
			Payload: plugin.MustEncode(PruneValues{Values: []row.Value{row.String(e.val)}}),
		})
	}
	res, err := pruneInitializer{}.Run(&runtime.InitializerContext{
		DAG: "d", Vertex: "scan", Source: "t", FS: fs, Events: events,
		Payload: plugin.MustEncode(PruneInitializerConfig{
			Files: files,
			PartitionVals: []row.Value{
				row.String("a"), row.String("b"), row.String("c"), row.String("d"),
			},
			SourceVertex: "dim",
		}),
		VertexParallelism: func(string) int { return 3 },
	})
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, p := range res.PerTaskPayload {
		var asn library.SplitAssignment
		if err := plugin.Decode(p, &asn); err != nil {
			t.Fatal(err)
		}
		for _, s := range asn.Splits {
			kept = append(kept, s.Path)
		}
	}
	if want := files[:3]; !reflect.DeepEqual(kept, want) {
		t.Fatalf("kept %v, want %v", kept, want)
	}
}

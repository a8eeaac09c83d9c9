package am

import (
	"testing"
	"time"

	"tez/internal/dag"
	"tez/internal/event"
	"tez/internal/library"
	"tez/internal/plugin"
)

// lateShrinkManager reproduces the auto-reduce ordering race: it sits on a
// middle vertex and attempts to shrink its parallelism only after a source
// task completes — by which time a downstream ImmediateStart consumer has
// already scheduled tasks whose physical-input counts were derived from
// the current routing tables. The attempt must fail; if it were allowed,
// the consumer would wait forever for movements from source tasks that no
// longer exist.
type lateShrinkManager struct {
	ctx       VertexManagerContext
	scheduled bool
}

var lateShrinkErr = make(chan error, 1)

func init() {
	RegisterVertexManager("amtest.late_shrink", func() VertexManager { return &lateShrinkManager{} })
}

func (m *lateShrinkManager) Initialize(ctx VertexManagerContext) error {
	m.ctx = ctx
	return nil
}

func (m *lateShrinkManager) OnVertexStarted() {}

func (m *lateShrinkManager) OnSourceTaskCompleted(string, int) {
	if m.scheduled {
		return
	}
	m.scheduled = true
	select {
	case lateShrinkErr <- m.ctx.SetPartitionRanges([]int{0}):
	default:
	}
	tasks := make([]int, m.ctx.Parallelism())
	for i := range tasks {
		tasks[i] = i
	}
	m.ctx.ScheduleTasks(tasks)
}

func (m *lateShrinkManager) OnVertexManagerEvent(event.VertexManagerEvent) {}

// TestParallelismShrinkRefusedAfterConsumerScheduled is the regression for
// an intermittent DAG deadlock: a vertex applying runtime auto-reduce
// after one of its consumers was slow-started would rebuild the shared
// edge manager underneath running consumer attempts, which then waited for
// the original (larger) number of physical inputs forever.
// SetPartitionRanges must refuse once any consumer task left the pending
// state, leaving the submitted parallelism in force so every expected
// movement still arrives.
func TestParallelismShrinkRefusedAfterConsumerScheduled(t *testing.T) {
	plat := newTestPlatform(4)
	defer plat.Stop()
	var lines []string
	for i := 0; i < 50; i++ {
		lines = append(lines, "a b c d e f g h")
	}
	writeLines(t, plat, "/in/shrink", lines)

	sg := library.OrderedEdge(library.OrderedPartitionedConfig{})
	d := dag.New("shrink-race")
	tok := d.AddVertex("tokenizer", plugin.Desc(library.MapProcessorName, library.FuncConfig{Func: "amtest.tokenize"}), -1)
	tok.Sources = []dag.DataSource{library.DFSSource("lines", []string{"/in/shrink"}, 4*1024)}
	mid := d.AddVertex("mid", plugin.Desc(library.ReduceProcessorName, library.FuncConfig{Func: "amtest.sum"}), 4)
	mid.Manager = plugin.Desc("amtest.late_shrink", nil)
	final := d.AddVertex("final", plugin.Desc(library.ReduceProcessorName, library.FuncConfig{Func: "amtest.sum"}), 2)
	// The consumer schedules all its tasks the moment the vertex starts —
	// before mid's manager gets its first source-completion callback.
	final.Manager = plugin.Desc(ImmediateStartVertexManagerName, nil)
	final.Sinks = []dag.DataSink{library.DFSSink("counts", "/out/shrink")}
	d.Connect(tok, mid, sg)
	d.Connect(mid, final, sg)

	for len(lateShrinkErr) > 0 {
		<-lateShrinkErr
	}
	type outcome struct{ err error }
	done := make(chan outcome, 1)
	go func() {
		_, err := RunDAG(plat, Config{Name: "shrink-race"}, d)
		done <- outcome{err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("DAG deadlocked: parallelism shrank under an already-scheduled consumer")
	}

	select {
	case err := <-lateShrinkErr:
		if err == nil {
			t.Fatal("SetPartitionRanges succeeded after the consumer scheduled tasks")
		}
	default:
		t.Fatal("late-shrink manager never attempted SetPartitionRanges")
	}

	counts := readCounts(t, plat, "/out/shrink")
	for _, w := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		if counts[w] != 50 {
			t.Fatalf("count[%s] = %d, want 50", w, counts[w])
		}
	}
}

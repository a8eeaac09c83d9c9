package library

import (
	"fmt"
	"reflect"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"tez/internal/dfs"
	"tez/internal/event"
	"tez/internal/plugin"
	"tez/internal/runtime"
	"tez/internal/shuffle"
)

// TestMovementIndexOutOfRange: a DataMovement routed to an index outside
// the consumer's physical inputs fails the read with an error naming the
// index, even when every real input arrives as well.
func TestMovementIndexOutOfRange(t *testing.T) {
	const phys = 2
	for _, bad := range []int{-1, phys} {
		svc := testServices(t)
		in := &OrderedGroupedKVInput{}
		if err := in.Initialize(ctxFor(svc, runtime.Meta{DAG: "d", Vertex: "red"}, "map", nil, phys)); err != nil {
			t.Fatal(err)
		}
		if err := in.Start(); err != nil {
			t.Fatal(err)
		}
		for task, idx := range []int{0, 1, bad} {
			id := shuffle.OutputID{DAG: "d", Vertex: "map", Task: task}
			registerRun(t, svc, "n1", id, fmt.Sprintf("t%d", task))
			_ = in.HandleEvent(dmFor(idx, task, 0, id))
		}
		read := make(chan error, 1)
		go func() { _, err := in.Reader(); read <- err }()
		select {
		case err := <-read:
			if want := fmt.Sprintf("input %d of %d", bad, phys); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("index %d: Reader returned %v, want an error naming %q", bad, err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("index %d: Reader still waiting", bad)
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDFSSourceInputAssignedTwice: the first split assignment stands; a
// second one neither panics nor replaces it.
func TestDFSSourceInputAssignedTwice(t *testing.T) {
	svc := testServices(t)
	first := []dfs.Split{{Path: "/in/a", Length: 10}}
	in := &DFSSourceInput{}
	if err := in.Initialize(ctxFor(svc, runtime.Meta{DAG: "d", Vertex: "map"}, "lines", nil, 1)); err != nil {
		t.Fatal(err)
	}
	for _, splits := range [][]dfs.Split{first, {{Path: "/in/b", Length: 20}}} {
		ev := event.RootInputDataInformation{Payload: plugin.MustEncode(SplitAssignment{Splits: splits})}
		if err := in.HandleEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	r, err := in.Reader()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.(*splitRecordReader).splits; !reflect.DeepEqual(got, first) {
		t.Fatalf("splits = %v, want the first assignment %v", got, first)
	}
}

// TestKillWhileReaderWaits: killing the container wakes every Reader that
// waits for its data — shuffle consumers with nothing fetched and DFS
// inputs with no assignment — and 200 inputs sharing the one kill channel
// leave no goroutine behind once closed.
func TestKillWhileReaderWaits(t *testing.T) {
	svc := testServices(t)
	before := goruntime.NumGoroutine()
	stop := make(chan struct{})
	inputs := make([]runtime.Input, 200)
	read := make(chan error, len(inputs))
	for i := range inputs {
		switch i % 3 {
		case 0:
			inputs[i] = &OrderedGroupedKVInput{}
		case 1:
			inputs[i] = &UnorderedKVInput{}
		default:
			inputs[i] = &DFSSourceInput{}
		}
		ctx := ctxFor(svc, runtime.Meta{DAG: "d", Vertex: "red", Task: i}, "map", nil, 2)
		ctx.Stop = stop
		if err := inputs[i].Initialize(ctx); err != nil {
			t.Fatal(err)
		}
		if err := inputs[i].Start(); err != nil {
			t.Fatal(err)
		}
		go func(in runtime.Input) { _, err := in.Reader(); read <- err }(inputs[i])
	}
	close(stop)
	timeout := time.After(5 * time.Second)
	for range inputs {
		select {
		case err := <-read:
			if err == nil || !strings.Contains(err.Error(), "killed") {
				t.Fatalf("Reader returned %v after the kill", err)
			}
		case <-timeout:
			t.Fatal("a Reader still waits after the kill")
		}
	}
	for _, in := range inputs {
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A goroutine that has signalled its exit may still be counted for a
	// moment; one that is parked stays counted for good.
	for deadline := time.Now().Add(2 * time.Second); goruntime.NumGoroutine() > before; goruntime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after closing, %d before", goruntime.NumGoroutine(), before)
		}
	}
}

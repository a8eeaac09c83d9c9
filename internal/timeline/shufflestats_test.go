package timeline

import (
	"reflect"
	"testing"
)

func TestEdgeFetchStats(t *testing.T) {
	fetch := func(dag, vertex, info string, val int64) Event {
		return Event{Type: ShuffleFetch, DAG: dag, Vertex: vertex, Info: info, Val: val}
	}
	events := []Event{
		fetch("dag1", "red", "map p0 -> n1", 100),
		fetch("dag1", "red", "map p0 -> n2", 50),
		fetch("dag1", "red", "map p1 -> n2", 25),
		fetch("dag1", "join", "left p0 -> n1", 10),
		fetch("dag1", "join", "", 1),                                           // defensive: empty info is its own edge
		fetch("dag2", "red", "map p0 -> n1", 1),                                // other run: filtered out
		{Type: ShuffleSpill, DAG: "dag1", Vertex: "red", Info: "map", Val: 99}, // not a fetch
	}
	got := EdgeFetchStats(events, "dag1")
	want := []EdgeFetch{
		{Vertex: "join", Edge: "", Fetches: 1, Bytes: 1},
		{Vertex: "join", Edge: "left", Fetches: 1, Bytes: 10},
		{Vertex: "red", Edge: "map", Fetches: 3, Bytes: 175},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EdgeFetchStats = %+v, want %+v", got, want)
	}
	// Empty dagID aggregates every run.
	all := EdgeFetchStats(events, "")
	if len(all) != 3 || all[2].Fetches != 4 || all[2].Bytes != 176 {
		t.Fatalf("unfiltered stats = %+v", all)
	}
}

package timeline

import (
	"sort"
	"strings"
)

// EdgeFetch summarises one shuffle edge's fetch traffic: how many fetches
// it served and the bytes moved.
type EdgeFetch struct {
	Vertex  string // producing vertex
	Edge    string // edge name (= consumer vertex)
	Fetches int
	Bytes   int64
}

// EdgeFetchStats aggregates one run's ShuffleFetch spans per (producing
// vertex, edge), sorted by vertex then edge. The edge is the first word of
// the span's Info ("<edge> p<k> -> <reader>"). An empty dagID aggregates
// every run in the journal.
func EdgeFetchStats(events []Event, dagID string) []EdgeFetch {
	byEdge := make(map[[2]string]*EdgeFetch)
	for _, e := range events {
		if e.Type != ShuffleFetch || (dagID != "" && e.DAG != dagID) {
			continue
		}
		edge, _, _ := strings.Cut(e.Info, " ")
		key := [2]string{e.Vertex, edge}
		ef := byEdge[key]
		if ef == nil {
			ef = &EdgeFetch{Vertex: e.Vertex, Edge: edge}
			byEdge[key] = ef
		}
		ef.Fetches++
		ef.Bytes += e.Val
	}
	out := make([]EdgeFetch, 0, len(byEdge))
	for _, ef := range byEdge {
		out = append(out, *ef)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Vertex != out[j].Vertex {
			return out[i].Vertex < out[j].Vertex
		}
		return out[i].Edge < out[j].Edge
	})
	return out
}

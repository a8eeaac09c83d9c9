package mapreduce

import (
	"fmt"

	"tez/internal/am"
	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/plugin"
)

// StitchWorkflow implements the idea the paper's future-work section
// (§7) sketches: "create tooling that enables a full MapReduce workflow
// to be stitched into a single Tez DAG". A chain of jobs — where job i+1
// reads job i's output — becomes one DAG:
//
//	map₀ ⇒(scatter-gather) reduce₀ ⇒(one-to-one) map₁ ⇒ … ⇒ reduceₙ → sink
//
// Intermediate job outputs never touch the DFS: each reduce streams its
// rows over a one-to-one edge straight into the next map, whose
// parallelism is inherited from the producing reduce. Only the last job
// commits output. Map-only jobs contribute a single vertex.
//
// Every job after the first must leave InputPaths empty (its input is the
// previous job's output by construction).
func StitchWorkflow(name string, jobs []JobConf) (*dag.DAG, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("mapreduce: empty workflow")
	}
	d := dag.New(name)
	var prev *dag.Vertex // tail vertex of the previous job

	for i, j := range jobs {
		j = j.withDefaults()
		if j.Map == "" {
			return nil, fmt.Errorf("mapreduce: job %d has no map function", i)
		}
		if i == 0 && len(j.InputPaths) == 0 {
			return nil, fmt.Errorf("mapreduce: first job needs input paths")
		}
		if i > 0 && len(j.InputPaths) > 0 {
			return nil, fmt.Errorf("mapreduce: stitched job %d must not name inputs", i)
		}

		m := d.AddVertex(fmt.Sprintf("map%d", i),
			plugin.Desc(library.MapProcessorName, library.FuncConfig{Func: j.Map}), -1)
		if i == 0 {
			m.Sources = []dag.DataSource{library.DFSSource("input", j.InputPaths, j.SplitSize)}
		} else {
			// The stitched boundary: one-to-one from the previous tail;
			// parallelism is inherited through the edge.
			d.Connect(prev, m, library.OneToOneEdge())
		}

		tail := m
		if j.Reduce != "" {
			r := d.AddVertex(fmt.Sprintf("reduce%d", i),
				plugin.Desc(library.ReduceProcessorName, library.FuncConfig{Func: j.Reduce}), j.Reducers)
			d.Connect(m, r, library.OrderedEdge(library.OrderedPartitionedConfig{}))
			tail = r
		}
		if i == len(jobs)-1 {
			if j.OutputPath == "" {
				return nil, fmt.Errorf("mapreduce: final job needs an output path")
			}
			tail.Sinks = []dag.DataSink{library.DFSSink("output", j.OutputPath)}
		}
		prev = tail
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// RunStitched builds and runs a stitched workflow in the session.
func RunStitched(sess *am.Session, name string, jobs []JobConf) (am.DAGResult, error) {
	d, err := StitchWorkflow(name, jobs)
	if err != nil {
		return am.DAGResult{}, err
	}
	return sess.Run(d)
}

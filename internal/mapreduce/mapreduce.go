// Package mapreduce expresses MapReduce on Tez (§5.1): "at its core, it is
// a simple 2 vertex connected graph" — a map vertex and a reduce vertex
// joined by a scatter-gather edge, using the built-in MapProcessor and
// ReduceProcessor. Any job written against this API runs unchanged either
// through a Tez session (with container reuse, sessions, auto reduce
// parallelism) or in the classic pre-Tez mode: one fresh application
// master per job, no reuse, fixed reducer count — so workflow chains pay
// the repeated start-up and DFS materialisation costs the paper measures.
package mapreduce

import (
	"fmt"

	"tez/internal/am"
	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/platform"
	"tez/internal/plugin"
)

// JobConf describes one MapReduce job. Map and Reduce name functions
// registered with library.RegisterMapFunc / RegisterReduceFunc.
type JobConf struct {
	Name       string
	Map        string
	Reduce     string // empty: map-only job
	Combiner   string // optional library.RegisterCombineFunc pre-aggregator
	InputPaths []string
	OutputPath string
	Reducers   int   // reduce parallelism as submitted (default 4)
	SplitSize  int64 // desired split size (default 16 KiB)
}

func (j JobConf) withDefaults() JobConf {
	if j.Reducers <= 0 {
		j.Reducers = 4
	}
	if j.SplitSize <= 0 {
		j.SplitSize = 16 * 1024
	}
	return j
}

// BuildDAG lowers the job to its canonical Tez DAG.
func BuildDAG(j JobConf) (*dag.DAG, error) {
	j = j.withDefaults()
	if j.Name == "" || j.Map == "" || len(j.InputPaths) == 0 || j.OutputPath == "" {
		return nil, fmt.Errorf("mapreduce: incomplete job conf %+v", j)
	}
	d := dag.New(j.Name)
	m := d.AddVertex("map", plugin.Desc(library.MapProcessorName, library.FuncConfig{Func: j.Map}), -1)
	m.Sources = []dag.DataSource{library.DFSSource("input", j.InputPaths, j.SplitSize)}
	sink := library.DFSSink("output", j.OutputPath)
	if j.Reduce == "" {
		m.Sinks = []dag.DataSink{sink}
		return d, nil
	}
	r := d.AddVertex("reduce", plugin.Desc(library.ReduceProcessorName, library.FuncConfig{Func: j.Reduce}), j.Reducers)
	r.Sinks = []dag.DataSink{sink}
	d.Connect(m, r, library.OrderedEdge(library.OrderedPartitionedConfig{Combiner: j.Combiner}))
	return d, nil
}

// RunOnTez executes the job in a Tez session.
func RunOnTez(sess *am.Session, j JobConf) (am.DAGResult, error) {
	d, err := BuildDAG(j)
	if err != nil {
		return am.DAGResult{}, err
	}
	return sess.Run(d)
}

// RunClassic executes the job in the pre-Tez mode: a dedicated AM, no
// container reuse, no runtime parallelism changes.
func RunClassic(plat *platform.Platform, j JobConf) (am.DAGResult, error) {
	d, err := BuildDAG(j)
	if err != nil {
		return am.DAGResult{}, err
	}
	cfg := am.Config{
		Name:                   "mr-" + j.Name,
		DisableContainerReuse:  true,
		DisableAutoParallelism: true,
	}
	return am.RunDAG(plat, cfg, d)
}

// RunChainOnTez runs a workflow of jobs in one shared session — what the
// paper's future-work section calls "stitching a full MapReduce workflow
// into a single Tez [session]". Jobs run in order; later jobs may read
// earlier jobs' outputs.
func RunChainOnTez(sess *am.Session, jobs []JobConf) error {
	for _, j := range jobs {
		res, err := RunOnTez(sess, j)
		if err != nil {
			return err
		}
		if res.Status != am.DAGSucceeded {
			return fmt.Errorf("mapreduce: job %s: %v", j.Name, res.Status)
		}
	}
	return nil
}

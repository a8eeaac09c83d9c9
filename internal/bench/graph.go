// BSP graph-engine experiment: PageRank, connected components and SSSP
// compiled onto session DAGs, reported as supersteps/sec and messages/sec,
// with a registry-cached vs cold-load ablation isolating what the
// per-container ObjectRegistry buys each superstep.
package bench

import (
	"fmt"
	"time"

	"tez/internal/am"
	"tez/internal/graph"
	"tez/internal/platform"
)

const (
	graphNodes      = 8
	graphVertices   = 20000
	graphDegree     = 8
	graphSeed       = 7
	graphPartitions = 8
	graphSupersteps = 12 // fixed horizon: cached and cold must do identical work
)

// graphRun is what one job of the graph experiment measured.
type graphRun struct {
	supersteps   int
	sent         int64
	registryHits int64
	coldLoads    int64
	stateLoad    time.Duration
	wall         time.Duration
}

func runGraphJob(plat *platform.Platform, name string, job graph.Job) (graphRun, error) {
	sess := am.NewSession(plat, am.Config{
		Name:                 "bench-" + name,
		PrewarmContainers:    4,
		ContainerIdleRelease: 500 * time.Millisecond,
	})
	defer sess.Close()
	start := time.Now()
	res, err := graph.Run(sess, plat, job)
	if err != nil {
		return graphRun{}, fmt.Errorf("graph %s: %w", name, err)
	}
	run := graphRun{supersteps: res.Supersteps, wall: time.Since(start)}
	for _, s := range res.Stats {
		run.sent += s.Sent
		run.stateLoad += s.StateLoad
		run.registryHits += s.RegistryHits
		run.coldLoads += s.ColdLoads
	}
	return run, nil
}

// graphEngine runs the graph suite on one simulated cluster: PageRank
// twice (warm registry vs the DisableRegistryCache ablation — identical
// DAGs, identical superstep count, the only difference is whether compute
// tasks may reuse cached partition snapshots), then connected components
// and SSSP with vote-to-halt termination.
func graphEngine(sc Scale) (*Report, error) {
	vertices := graphVertices
	if sc.Name == "tiny" {
		vertices = 2000
	}
	plat := platform.New(platform.Default(graphNodes))
	defer plat.Stop()

	directed := graph.Generate(vertices, graphDegree, graphSeed)
	undirected := graph.NewGraph()
	for _, id := range directed.VertexIDs() {
		for _, e := range directed.Edges(id) {
			if err := undirected.AddUndirectedEdge(id, e.To, e.Weight); err != nil {
				return nil, err
			}
		}
	}

	prJob := graph.Job{
		Name:          "bench-pr",
		Program:       graph.PageRankProgram,
		ProgramConfig: graph.PageRankConfig{Damping: 0.85, Epsilon: -1},
		Graph:         directed,
		Partitions:    graphPartitions,
		MaxSupersteps: graphSupersteps,
	}
	coldJob := prJob
	coldJob.Name = "bench-pr-cold"
	coldJob.DisableRegistryCache = true

	rep := &Report{
		Figure:  "graph",
		Title:   "BSP graph engine on session DAGs (Pregel-style supersteps)",
		Headers: []string{"experiment", "vertices", "supersteps", "ss/sec", "msgs/sec", "reg hits", "cold", "state-load ms", "wall ms"},
	}
	runs := map[string]graphRun{}
	for _, j := range []struct {
		name string
		job  graph.Job
	}{
		{"pagerank-cached", prJob},
		{"pagerank-cold", coldJob},
		{"cc", graph.Job{
			Name:       "bench-cc",
			Program:    graph.CCProgram,
			Graph:      undirected,
			Partitions: graphPartitions,
		}},
		{"sssp", graph.Job{
			Name:          "bench-sssp",
			Program:       graph.SSSPProgram,
			ProgramConfig: graph.SSSPConfig{Source: 0},
			Graph:         directed,
			Partitions:    graphPartitions,
			MaxSupersteps: 60,
		}},
	} {
		r, err := runGraphJob(plat, j.name, j.job)
		if err != nil {
			return nil, err
		}
		runs[j.name] = r
		rep.AddRow(j.name,
			fmt.Sprintf("%d", j.job.Graph.NumVertices()),
			fmt.Sprintf("%d", r.supersteps),
			fmt.Sprintf("%.1f", float64(r.supersteps)/r.wall.Seconds()),
			fmt.Sprintf("%.0f", float64(r.sent)/r.wall.Seconds()),
			fmt.Sprintf("%d", r.registryHits),
			fmt.Sprintf("%d", r.coldLoads),
			ms(r.stateLoad), ms(r.wall))
	}

	cached, cold := runs["pagerank-cached"], runs["pagerank-cold"]
	if cached.registryHits == 0 {
		return nil, fmt.Errorf("graph: cached run scored no registry hits — the ablation compares nothing")
	}
	if cold.registryHits != 0 {
		return nil, fmt.Errorf("graph: ablation run hit the registry %d times", cold.registryHits)
	}
	if cached.stateLoad > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"registry ablation: cached run spent %sms (re)loading state vs %sms cold (%s), wall %sms vs %sms",
			ms(cached.stateLoad), ms(cold.stateLoad), speedup(cold.stateLoad, cached.stateLoad),
			ms(cached.wall), ms(cold.wall)))
	}
	rep.Notes = append(rep.Notes,
		"each superstep is one compute→inbox DAG in a shared session; partitions cached in the per-container ObjectRegistry, only messages shuffle")
	return rep, nil
}

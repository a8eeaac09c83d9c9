package bench

import (
	"fmt"
	"math/rand"
	"time"

	"tez/internal/am"
	"tez/internal/cluster"
	"tez/internal/dag"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/runtime"
)

// The control-plane experiment weighs the scheduler and the AM at a size
// nothing else in the repository reaches: 10k simulated nodes, a 100k-task
// DAG (benchmark/'s scheduler probe runs at its workloads' 6–16 nodes).
// Sizes are deliberately NOT tied to Scale — the bar is absolute — except
// that the package's smoke test shrinks them.
//
//   - sched:    raw RM scheduling decisions/sec. 8 apps, 5 waves of mixed-
//     locality requests, driven by ScheduleNow so only scheduler cost is on
//     the clock.
//   - dag-100k: one 100k-task DAG through the full AM — every task is a
//     real attempt with a real container allocation — as tasks/sec.
const (
	cpNodes        = 10_000
	cpNodesPerRack = 40
	cpSchedApps    = 8
	cpSchedWaves   = 5
	cpSchedPerWave = 2_000
	cpDAGTasks     = 100_000
)

// noopProcessor is dag-100k's task body: the point is to weigh the control
// plane, so the data plane must cost nothing.
type noopProcessor struct{}

func (noopProcessor) Initialize(*runtime.Context) error { return nil }
func (noopProcessor) Run(map[string]runtime.Input, map[string]runtime.Output) error {
	return nil
}
func (noopProcessor) Close() error { return nil }

func init() {
	runtime.RegisterProcessor("bench.noop", func() runtime.Processor { return noopProcessor{} })
}

// controlPlane runs sched and dag-100k and reports each as one throughput
// row.
func controlPlane(sc Scale) (*Report, error) {
	nodes, perWave, tasks := cpNodes, cpSchedPerWave, cpDAGTasks
	if sc.Name == "tiny" {
		nodes, perWave, tasks = 200, 100, 2_000
	}
	rep := &Report{
		Figure:  "CP",
		Title:   "control-plane throughput (10k nodes / 100k tasks)",
		Headers: []string{"experiment", "nodes", "items", "ms", "per_sec", "unit"},
	}
	add := func(exp string, items int, d time.Duration, unit string) {
		rep.AddRow(exp, fmt.Sprintf("%d", nodes), fmt.Sprintf("%d", items), ms(d),
			fmt.Sprintf("%.0f", float64(items)/d.Seconds()), unit)
	}

	placed, d, err := controlPlaneSched(nodes, perWave)
	if err != nil {
		return nil, err
	}
	add("sched", placed, d, "decisions/sec")

	if d, err = controlPlaneDAG(nodes, tasks); err != nil {
		return nil, err
	}
	add("dag-100k", tasks, d, "tasks/sec")
	return rep, nil
}

// controlPlaneSched times scheduling decisions against an RM of the given
// size. Requests arrive in waves with a fixed-seed mix of node-local /
// rack-local / any locality; ScheduleNow drives passes until every request
// in the wave is satisfied (delay scheduling relaxes the contended
// node-local ones), so the measured time is pure scheduler work.
func controlPlaneSched(nodeCount, perWave int) (int, time.Duration, error) {
	rm := cluster.New(cluster.Config{
		Nodes:        nodeCount,
		NodesPerRack: cpNodesPerRack,
		NodeResource: cluster.Resource{MemoryMB: 8192, VCores: 8},
		// The bench drives passes explicitly; park the heartbeat.
		ScheduleInterval:  time.Hour,
		NodeLocalityDelay: 2,
		RackLocalityDelay: 2,
	})
	defer rm.Stop()

	nodes := rm.Nodes()
	apps := make([]*cluster.Application, cpSchedApps)
	for i := range apps {
		apps[i] = rm.Submit(fmt.Sprintf("cp-sched-%d", i))
		defer apps[i].Unregister()
	}
	held := func() int {
		n := 0
		for _, a := range apps {
			n += a.HeldContainers()
		}
		return n
	}

	rng := rand.New(rand.NewSource(42))
	want := 0
	start := time.Now()
	for wave := 0; wave < cpSchedWaves; wave++ {
		for i := 0; i < perWave; i++ {
			req := &cluster.ContainerRequest{
				Priority:      i % 3,
				Resource:      cluster.Resource{MemoryMB: 1024, VCores: 1},
				RelaxLocality: true,
			}
			switch i % 3 {
			case 0: // node-local preference
				req.Nodes = []cluster.NodeID{nodes[rng.Intn(len(nodes))]}
			case 1: // rack-local preference
				req.Racks = []string{rm.RackOf(nodes[rng.Intn(len(nodes))])}
			}
			apps[i%cpSchedApps].Request(req)
			want++
		}
		// Drive passes until the wave is fully placed. Contended
		// node-local requests need extra passes to accrue missed
		// opportunities and relax; cap defensively.
		for pass := 0; pass < 10_000 && held() < want; pass++ {
			rm.ScheduleNow()
		}
	}
	elapsed := time.Since(start)

	if got := held(); got != want {
		return 0, 0, fmt.Errorf("sched: placed %d of %d requests", got, want)
	}
	return want, elapsed, nil
}

// controlPlaneDAG times one no-op DAG of the given width through a session.
func controlPlaneDAG(nodes, tasks int) (time.Duration, error) {
	cfg := platform.Fast(nodes)
	cfg.Cluster.NodesPerRack = cpNodesPerRack
	plat := platform.New(cfg)
	defer plat.Stop()
	sess := am.NewSession(plat, am.Config{Name: "cp-100k"})
	defer sess.Close()

	d := dag.New("dag-100k")
	d.AddVertex("work", plugin.Desc("bench.noop", nil), tasks)
	start := time.Now()
	if _, err := sess.Run(d); err != nil {
		return 0, fmt.Errorf("dag-100k: %w", err)
	}
	return time.Since(start), nil
}

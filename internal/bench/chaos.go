package bench

import (
	"fmt"
	"reflect"
	"strconv"
	"time"

	"tez/internal/am"
	"tez/internal/chaos"
	"tez/internal/library"
	"tez/internal/mapreduce"
	"tez/internal/metrics"
	"tez/internal/platform"
)

// chaosScenario is one seeded fault schedule for the robustness table.
type chaosScenario struct {
	name string
	seed int64
	spec chaos.Spec
	cfg  func(am.Config) am.Config
}

func chaosScenarios() []chaosScenario {
	id := func(c am.Config) am.Config { return c }
	return []chaosScenario{
		{"fetch-faults", 101, chaos.Spec{TransientFetchProb: 0.25, FetchDataLostProb: 0.05}, id},
		{"task+launch", 102, chaos.Spec{TaskFaultProb: 0.20, LaunchFailProb: 0.20}, id},
		{"dfs-read", 103, chaos.Spec{DFSReadFaultProb: 0.30}, id},
		{"node-crash", 104, chaos.Spec{CrashNodes: 1, StepSpacing: 3, TransientFetchProb: 0.10}, id},
		{"drain", 105, chaos.Spec{DecommissionNodes: 1, StepSpacing: 3}, id},
		{"sick-node", 106, chaos.Spec{SickNodes: []string{"node-000"}},
			func(c am.Config) am.Config { c.NodeMaxTaskFailures = 2; return c }},
		// node-000/001 are where the RM places first, so the slowdown is
		// guaranteed to hit real work.
		{"slow-nodes", 107, chaos.Spec{SlowNodes: []string{"node-000", "node-001"}, SlowExecDelay: 2 * time.Millisecond, SlowFetchFactor: 3},
			func(c am.Config) am.Config { c.Speculation = true; return c }},
	}
}

// chaosRun is what one wordcount run under a fault schedule left behind.
type chaosRun struct {
	counts map[string]int
	res    am.DAGResult
	health metrics.NodeHealthReport
	dur    time.Duration
}

// runChaosWordcount runs the workload on a fresh 8-node platform with the
// given fault plane (nil for none) and tears both down before returning,
// on every path.
func runChaosWordcount(lines int, plane *chaos.Plane, mut func(am.Config) am.Config) (chaosRun, error) {
	pcfg := platform.Fast(8)
	pcfg.Chaos = plane
	plat := platform.New(pcfg)
	defer plat.Stop()
	if err := writeWords(plat, "/bench/chaos/words", lines); err != nil {
		return chaosRun{}, err
	}
	sess := am.NewSession(plat, mut(am.Config{Name: "chaos", MaxTaskAttempts: 8}))
	defer sess.Close()
	start := time.Now()
	res, err := mapreduce.RunOnTez(sess, mapreduce.JobConf{
		Name: "wc", Map: "bench.tokenize", Reduce: "bench.count",
		InputPaths: []string{"/bench/chaos/words"}, OutputPath: "/bench/chaos/out",
		Reducers: 4,
	})
	dur := time.Since(start)
	if err != nil {
		return chaosRun{}, err
	}
	counts, err := readCountsDFS(plat, "/bench/chaos/out")
	return chaosRun{counts: counts, res: res, health: sess.NodeHealth(), dur: dur}, err
}

// chaosRobustness runs the same wordcount workload under each seeded fault
// schedule and reports whether the output stayed identical to the
// fault-free run, what the faults cost, and what node health saw — the
// robustness counterpart of the timing figures. A scenario whose answer
// diverged fails the run after the table is built.
func chaosRobustness(sc Scale) (*Report, error) {
	lines := sc.PigRows
	if lines <= 0 {
		lines = 3000
	}
	rep := &Report{
		Figure:  "Chaos",
		Title:   "seeded fault injection vs fault-free wordcount (8 nodes)",
		Headers: []string{"scenario", "seed", "result", "time_ms", "injected", "att_failed", "reexecuted", "blacklisted"},
	}

	clean, err := runChaosWordcount(lines, nil, func(c am.Config) am.Config { return c })
	if err != nil {
		return nil, fmt.Errorf("fault-free run: %w", err)
	}
	rep.AddRow("fault-free", "-", "baseline", ms(clean.dur), "0", "0", "0", "0")

	for _, s := range chaosScenarios() {
		plane := chaos.New(s.seed, s.spec)
		run, err := runChaosWordcount(lines, plane, s.cfg)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.name, err)
		}
		verdict := "identical"
		if !reflect.DeepEqual(run.counts, clean.counts) {
			verdict = "DIVERGED"
		}
		var injected int64
		for _, v := range plane.Injected() {
			injected += v
		}
		rep.AddRow(s.name, strconv.FormatInt(s.seed, 10), verdict, ms(run.dur),
			strconv.FormatInt(injected, 10),
			strconv.FormatInt(run.res.Counters.Get("ATTEMPTS_FAILED"), 10),
			strconv.FormatInt(run.res.Counters.Get("TASKS_REEXECUTED"), 10),
			strconv.FormatInt(run.res.Counters.Get("NODES_BLACKLISTED"), 10))
		if s.name == "sick-node" {
			for _, h := range run.health {
				mark := ""
				if h.Blacklisted {
					mark = " BLACKLISTED"
				}
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"sick-node health: %s taskFailures=%d fetchFailures=%d%s",
					h.Node, h.TaskFailures, h.FetchFailures, mark))
			}
		}
	}
	rep.Notes = append(rep.Notes,
		"every scenario must read `identical`: chaos may slow a DAG down, never change its answer",
		"same seed ⇒ same schedule and decision stream (internal/chaos determinism tests)")
	return rep, divergedErr(rep)
}

// readCountsDFS aggregates committed wordcount output across part files.
func readCountsDFS(plat *platform.Platform, out string) (map[string]int, error) {
	res := map[string]int{}
	for _, f := range plat.FS.List(out + "/part-") {
		blob, err := plat.FS.ReadFile(f, "")
		if err != nil {
			return nil, err
		}
		r := library.NewPaddedReader(blob)
		for r.Next() {
			n, err := strconv.Atoi(string(r.Value()))
			if err != nil {
				return nil, err
			}
			res[string(r.Key())] += n
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
	}
	return res, nil
}

package bench

import (
	"fmt"
	"slices"
	"strings"
)

// Experiment is one row of the measurement surface: a runner that prints
// one Report and persists nothing. Numbers that are compared from commit
// to commit live in benchmark/ (BENCHMARK.json), not here.
type Experiment struct {
	Key   string
	Group string // optional second name selecting several rows at once
	Run   func(Scale) (*Report, error)
	OptIn bool // load rather than a figure: left out of "all"
}

// Experiments is the only place an experiment is registered; tez-bench,
// the root BenchmarkExperiments loop and this package's smoke test all
// range over it.
var Experiments = []Experiment{
	{Key: "f8", Run: hiveTPCDS},
	{Key: "f9", Run: hiveTPCH},
	{Key: "f10", Run: pigProduction},
	{Key: "f11", Run: kMeansIterations},
	{Key: "f12", Run: sparkTimelines},
	{Key: "f13", Run: sparkLatency},
	{Key: "chaos", Run: chaosRobustness},
	{Key: "reuse", Group: "ablations", Run: ablationContainerReuse},
	{Key: "prewarm", Group: "ablations", Run: ablationSession},
	{Key: "auto-parallelism", Group: "ablations", Run: ablationAutoParallelism},
	{Key: "pruning", Group: "ablations", Run: ablationPartitionPruning},
	{Key: "locality", Group: "ablations", Run: ablationLocality},
	{Key: "slow-start", Group: "ablations", Run: ablationSlowStart},
	{Key: "parallel-fetch", Group: "ablations", Run: ablationParallelFetch},
	{Key: "registry", Group: "ablations", Run: ablationObjectRegistry},
	{Key: "speculation", Group: "ablations", Run: ablationSpeculation},
	{Key: "shuffle-codec", Run: ablationShuffleCodec},
	// Load, not paper figures: the 100k-task DAG alone takes ten seconds
	// on a quiet box and a minute on a busy one.
	{Key: "controlplane", Run: controlPlane, OptIn: true},
	{Key: "graph", Run: graphEngine, OptIn: true},
}

// Select resolves a comma-separated list of experiment keys, group keys
// and "all" (every row that is not opt-in) to rows in table order, each at
// most once. A name that matches nothing is an error listing the valid
// ones, so a stale key cannot pass while measuring nothing.
func Select(spec string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		matched := false
		for _, e := range Experiments {
			if name == e.Key || (e.Group != "" && name == e.Group) || (name == "all" && !e.OptIn) {
				want[e.Key] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("unknown experiment %q; valid: %s", name, strings.Join(validNames(), ", "))
		}
	}
	var out []Experiment
	for _, e := range Experiments {
		if want[e.Key] {
			out = append(out, e)
		}
	}
	return out, nil
}

// validNames lists what Select accepts: "all", then keys in table order,
// each group named before its first row.
func validNames() []string {
	names := []string{"all"}
	for _, e := range Experiments {
		if e.Group != "" && !slices.Contains(names, e.Group) {
			names = append(names, e.Group)
		}
		names = append(names, e.Key)
	}
	return names
}

// divergedErr is the output check of the experiments that compare answers
// (chaos, the wire codec): the table still prints with DIVERGED in the
// cell, and the run fails naming the rows.
func divergedErr(rep *Report) error {
	var bad []string
	for _, row := range rep.Rows {
		for _, c := range row {
			if c == "DIVERGED" {
				bad = append(bad, row[0])
				break
			}
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("%s: answers diverged in rows %s", rep.Title, strings.Join(bad, ", "))
}

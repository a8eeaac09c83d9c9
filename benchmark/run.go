package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tez/internal/timeline"
)

// outcome is one run of one workload: what the last line of standard
// output says, plus the detail printed above it.
type outcome struct {
	workload  string
	seed      int64
	traced    bool
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	notes     []string // human-readable detail: quartiles, sample counts
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// tally folds a phase's job counts into the run's.
func (o *outcome) tally(ph *phase) {
	o.attempted += ph.attempted
	o.failed += ph.failed
}

// runUntraced produces the end-to-end metrics: set-up repeated for a
// steady setup_s, then one measured window with no journal and no span
// recorder anywhere, then the output check.
func runUntraced(w workload, seed int64, d time.Duration, size sizing) (*outcome, error) {
	o := &outcome{workload: w.name, seed: seed, values: map[string]float64{}}
	var setups []float64
	var inst instance
	for i := 0; i < size.setups; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		inst, err = w.setup(&env{seed: seed, size: size})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	ph := inst.measure(d)
	o.tally(ph)
	o.correct = o.failed == 0
	if err := inst.finalCheck(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		o.correct = false
	}

	jobs := ph.completed()
	o.values["setup_s"] = median(setups)
	o.values["job_wall_ms"] = ph.jobWall()
	o.values["job_cpu_ms"] = ph.jobCPUMs
	o.values["job_alloc_mb"] = ratio(ph.allocMB, jobs)
	q1, q2, q3 := quartiles(ph.wallMs)
	o.note("job wall quartiles %.3f / %.3f / %.3f ms over %d jobs in a %.1f s window", q1, q2, q3, len(ph.wallMs), ph.window.Seconds())
	o.note("setup_s median of %d set-ups: %s", len(setups), formatFloats(setups))
	o.note("failed share %d/%d", o.failed, o.attempted)
	o.note("as measured, before calibration: median job wall %.3f, job_cpu_ms %.3f (whole window); kernel median %.3f ms over %d samples (reference %.1f ms)",
		median(ph.rawWallMs), ratio(ph.cpuMs, jobs), median(ph.kernelMs), len(ph.kernelMs), calRefMs)
	o.note("per job: %.2f collections, %.2f containers allocated, sort %.1f ms, merge %.1f ms, fetch %.1f ms, alloc wait %.0f ms",
		ratio(float64(ph.gcs), jobs), ratio(float64(ph.allocated), jobs),
		ratio(float64(ph.counters["SHUFFLE_SORT_TIME_NS"])/1e6, jobs), ratio(float64(ph.counters["SHUFFLE_MERGE_TIME_NS"])/1e6, jobs),
		ratio(float64(ph.counters["SHUFFLE_FETCH_TIME_NS"])/1e6, jobs),
		ratio(ph.allocWaitMs(), jobs))
	return o, nil
}

func formatFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// runTraced produces the per-layer metrics from three short phases, each
// on its own platform, plus the probes:
//
//	traced     journal attached to every layer, spans recorded
//	reference  production default, nothing attached: counters, and the
//	           base the other two are compared with
//	model-free every cost-model delay zeroed
//
// and writes the spans and the last traced job's Chrome trace to outDir.
func runTraced(w workload, seed int64, d time.Duration, size sizing, outDir string) (*outcome, error) {
	o := &outcome{workload: w.name, seed: seed, traced: true, values: map[string]float64{}}
	for _, m := range perLayer {
		o.values[m.name] = 0
	}
	rec := newSpanRecorder()
	part := d / 3

	// Traced phase.
	journal := timeline.New()
	inst, err := w.setup(&env{seed: seed, size: size, journal: journal, rec: rec})
	if err != nil {
		return nil, err
	}
	traced := inst.measure(part)
	inst.close()
	o.tally(traced)
	paths, err := analyseJournal(journal.Events(), traced.start)
	if err != nil {
		return nil, err
	}
	journal = nil // let the collector have it before the next phase

	// Reference phase, then the probes shaped by its inputs.
	inst, err = w.setup(&env{seed: seed, size: size})
	if err != nil {
		return nil, err
	}
	ref := inst.measure(part)
	o.tally(ref)
	counted := ref
	if svc, ok := inst.(*serviceLoad); ok {
		if counted, err = svc.shadow(size.shadowDAGs); err != nil {
			inst.close()
			return nil, err
		}
	}
	o.correct = true
	if err := inst.finalCheck(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		o.correct = false
	}
	shape := inst.shape()
	inst.close()
	probes, err := runProbes(size, seed, shape, rec)
	if err != nil {
		return nil, err
	}

	// Model-free phase.
	inst, err = w.setup(&env{seed: seed, size: size, noModel: true})
	if err != nil {
		return nil, err
	}
	bare := inst.measure(part)
	inst.close()
	o.tally(bare)
	o.correct = o.correct && o.failed == 0

	v := o.values
	for name, value := range probes {
		v[name] = value
	}

	v["am.startup_ms"] = paths.startupMs
	v["am.run_ms"] = paths.runMs
	v["am.wait_ms"] = paths.waitMs
	v["am.finish_ms"] = paths.finishMs
	v["am.tasks"] = paths.tasks
	v["am.attempts_failed"] = paths.attemptsFailed
	v["am.job_wall_p90_ms"] = percentile(ref.wallMs, 90)
	v["timeline.events"] = paths.events
	v["bench.jobs_traced"] = float64(paths.dags)
	v["bench.outside_am_ms"] = midMean(traced.rawWallMs) - paths.wallMs

	jobs := counted.completed()
	perJob := func(counter string) float64 { return ratio(float64(counted.counters[counter]), jobs) }
	v["cluster.alloc_wait_ms"] = ratio(counted.allocWaitMs(), jobs)
	v["cluster.containers_allocated"] = ratio(float64(counted.allocated), jobs)
	v["cluster.reuse_ratio"] = ratio(float64(counted.reused), float64(counted.allocated+counted.reused))
	v["library.sort_ms"] = perJob("SHUFFLE_SORT_TIME_NS") / 1e6
	v["library.merge_ms"] = perJob("SHUFFLE_MERGE_TIME_NS") / 1e6
	v["library.spills"] = perJob("SHUFFLE_SPILLS")
	v["library.records_shuffled"] = ratio(float64(counted.records), jobs)
	v["shuffle.fetch_ms"] = perJob("SHUFFLE_FETCH_TIME_NS") / 1e6
	v["shuffle.fetches"] = perJob("SHUFFLE_FETCHES")
	v["shuffle.bytes_raw"] = perJob("SHUFFLE_BYTES_RAW")
	v["shuffle.bytes_wire"] = perJob("SHUFFLE_BYTES_WIRE")
	v["shuffle.increments"] = perJob("SHUFFLE_INCREMENTS")
	v["shuffle.fetch_retries"] = perJob("SHUFFLE_FETCH_RETRIES")
	v["dfs.bytes_read"] = ratio(float64(counted.dfsRead), jobs)
	v["dfs.bytes_written"] = ratio(float64(counted.dfsWritten), jobs)
	v["hive.plan_ms"] = median(ref.planMs)
	v["relop.rows_emitted"] = perJob("ROWS_EMITTED")
	v["relop.hashtable_builds"] = perJob("HASHTABLE_BUILDS")

	if len(ref.submitUs) > 0 {
		v["service.queue_wait_ms"] = median(ref.queueWaitMs)
		v["service.run_ms"] = median(ref.runMs)
		v["service.submit_us"] = median(ref.submitUs)
		v["service.dag_p50_ms"] = median(ref.wallMs)
		v["service.dag_p90_ms"] = percentile(ref.wallMs, 90)
		v["service.dag_p99_ms"] = percentile(ref.wallMs, 99)
		within := 0
		for _, ms := range ref.wallMs {
			if ms <= 25 {
				within++
			}
		}
		// A DAG that failed or was refused missed the limit.
		v["service.within_25ms_share"] = ratio(float64(within), float64(ref.attempted))
		v["service.rejected"] = float64(ref.rejected)
	}

	refWall := ref.jobWall()
	v["bench.trace_overhead_pct"] = 100 * ratio(traced.jobWall()-refWall, refWall)
	v["bench.modelled_wall_pct"] = 100 * ratio(refWall-bare.jobWall(), refWall)
	v["bench.gc_cpu_pct"] = 100 * ratio(ref.gcCPUMs, ref.cpuMs)
	v["bench.peak_rss_mb"] = readUsage().rssMB
	v["bench.generator_late_ms"] = ref.lateMs
	v["bench.job_wall_iqr_pct"] = 100 * iqrShare(ref.wallMs)
	v["bench.job_failed_share"] = ratio(float64(o.failed), float64(o.attempted))

	o.note("job wall: traced %.3f ms (%d jobs), reference %.3f ms (%d jobs), model-free %.3f ms (%d jobs)",
		traced.jobWall(), len(traced.wallMs), refWall, len(ref.wallMs), bare.jobWall(), len(bare.wallMs))
	o.note("reference phase: %.3f ms CPU and %.3f MB allocated per job", ratio(ref.cpuMs, ref.completed()), ratio(ref.allocMB, ref.completed()))
	o.note("am.*_ms tile %.3f ms of AM wall per typical traced job; counters averaged over %.0f jobs", paths.wallMs, counted.completed())

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	spansPath := filepath.Join(outDir, w.name+".spans.jsonl")
	if err := rec.writeJSONL(spansPath); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(outDir, w.name+".trace.json")
	if err := os.WriteFile(tracePath, paths.lastTrace, 0o644); err != nil {
		return nil, err
	}
	o.note("wrote %s and %s", spansPath, tracePath)
	return o, nil
}

// pathStats is the journal's view of the traced jobs: the critical-path
// tiling of each [DAG_SUBMITTED, DAG_FINISHED], averaged over the typical
// jobs — those whose DAG wall lies in the middle half. A mean keeps the
// segments additive; leaving the tails out keeps a handful of cold-start
// or preempted runs from standing for all of them.
type pathStats struct {
	dags           int
	startupMs      float64
	runMs          float64
	waitMs         float64
	finishMs       float64
	wallMs         float64 // the four segments sum to it
	tasks          float64 // per job, all traced jobs
	attemptsFailed float64
	events         float64 // journal events per job, cluster-level ones included
	lastTrace      []byte  // Chrome trace of the last job
}

// middleHalf returns the index range [lo, hi) of the middle half of n
// sorted items (all of them when there are fewer than four).
func middleHalf(n int) (lo, hi int) {
	if n < 4 {
		return 0, n
	}
	return n / 4, n - n/4
}

// midMean is the mean of the middle half of xs.
func midMean(xs []float64) float64 {
	s := sortedCopy(xs)
	lo, hi := middleHalf(len(s))
	return mean(s[lo:hi])
}

// analyseJournal tiles every run submitted at or after since.
func analyseJournal(events []timeline.Event, since time.Time) (pathStats, error) {
	byDAG := map[string][]timeline.Event{}
	var order []string
	total := 0
	for _, e := range events {
		if e.Wall.Before(since) {
			continue
		}
		total++
		if e.DAG == "" {
			continue
		}
		if _, seen := byDAG[e.DAG]; !seen {
			order = append(order, e.DAG)
		}
		byDAG[e.DAG] = append(byDAG[e.DAG], e)
	}
	var st pathStats
	var last string
	var paths []timeline.Path
	for _, id := range order {
		evs := byDAG[id]
		// A run that straddles the window's start has lost its head.
		if evs[0].Type != timeline.DAGSubmitted {
			continue
		}
		path, err := timeline.CriticalPath(evs, id)
		if err != nil {
			// Still running when the phase ended: no DAG_FINISHED.
			continue
		}
		paths = append(paths, path)
		last = id
		for _, e := range evs {
			if e.Type != timeline.AttemptFinished {
				continue
			}
			switch e.Info {
			case "SUCCEEDED":
				st.tasks++
			case "FAILED":
				st.attemptsFailed++
			}
		}
	}
	st.dags = len(paths)
	if st.dags == 0 {
		return st, fmt.Errorf("timeline: the traced phase journalled no complete run")
	}
	n := float64(st.dags)
	st.tasks /= n
	st.attemptsFailed /= n
	st.events = float64(total) / n

	sort.Slice(paths, func(i, j int) bool { return paths[i].Wall() < paths[j].Wall() })
	lo, hi := middleHalf(len(paths))
	for _, path := range paths[lo:hi] {
		st.wallMs += float64(path.Wall()) / 1e6
		for _, seg := range path.Segments {
			ms := float64(seg.Duration()) / 1e6
			switch seg.Kind {
			case "startup":
				st.startupMs += ms
			case "run":
				st.runMs += ms
			case "wait":
				st.waitMs += ms
			case "finish":
				st.finishMs += ms
			default:
				return st, fmt.Errorf("timeline: unknown critical-path segment kind %q", seg.Kind)
			}
		}
	}
	for _, f := range []*float64{&st.startupMs, &st.runMs, &st.waitMs, &st.finishMs, &st.wallMs} {
		*f /= float64(hi - lo)
	}
	trace, err := timeline.ChromeTrace(byDAG[last])
	if err != nil {
		return st, err
	}
	st.lastTrace = trace
	return st, nil
}

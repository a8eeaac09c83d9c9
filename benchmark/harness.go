package main

import (
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"syscall"
	"time"

	"tez/internal/am"
	"tez/internal/platform"
	"tez/internal/timeline"
)

// sizing fixes how much work a workload does. full is what BENCHMARK.json
// describes; the package test runs toy so tier-1 time barely moves.
type sizing struct {
	wcLines     int           // lines in each of wordcount-spill's three input files
	tpchOrders  int           // data.GenTPCH orders (lineitem is about 4x)
	svcRate     float64       // service-open: DAGs offered per second
	svcLines    int           // service-open: lines in each tenant's input file
	svcWarmup   int           // service-open: DAGs discarded before the window
	warmupJobs  int           // closed-loop jobs discarded before the window
	minJobs     int           // closed-loop jobs measured at least, however short the window
	setups      int           // times set-up is repeated for the median setup_s
	shadowDAGs  int           // service-open: DAGs run one at a time through a bare session for counters
	probeRound  time.Duration // one probe round runs its operation at least this long
	probeRounds int           // rounds per probe; the median is reported
}

var full = sizing{
	wcLines: 50_000, tpchOrders: 20_000,
	svcRate: 250, svcLines: 400, svcWarmup: 125,
	warmupJobs: 5, minJobs: 10, setups: 3, shadowDAGs: 200,
	probeRound: 60 * time.Millisecond, probeRounds: 3,
}

var toy = sizing{
	wcLines: 1_500, tpchOrders: 300,
	svcRate: 100, svcLines: 60, svcWarmup: 5,
	warmupJobs: 1, minJobs: 2, setups: 1, shadowDAGs: 3,
	probeRound: 2 * time.Millisecond, probeRounds: 1,
}

// env is what a workload's set-up is given: the seed every generator
// derives from, the sizes, and the two things a traced or model-free
// phase changes about the platform.
type env struct {
	seed    int64
	size    sizing
	journal *timeline.Journal // nil except in the traced phase
	noModel bool              // zero every cost-model delay of the platform
	rec     *spanRecorder     // nil in the untraced run
}

// platformConfig is platform.Default with this env's journal and, for the
// model-free phase, every modelled delay (container launch and warm-up,
// DFS write/read, shuffle transfer) set to zero. Scheduling policy — the
// RM heartbeat and the locality delays — is not a modelled cost and stays.
func (e *env) platformConfig(nodes int) platform.Config {
	cfg := platform.Default(nodes)
	if e.noModel {
		cfg.Cluster.ContainerLaunchOverhead = 0
		cfg.Cluster.WarmupPenalty = 0
		cfg.DFS.WriteDelayPerBlock = 0
		cfg.DFS.WriteDelayPerByte = 0
		cfg.DFS.ReadDelayPerByteRemote = 0
		cfg.Shuffle.FetchBaseLatency = 0
		cfg.Shuffle.DelayPerByteLocal = 0
		cfg.Shuffle.DelayPerByteRack = 0
		cfg.Shuffle.DelayPerByteRemote = 0
	}
	cfg.Timeline = e.journal
	return cfg
}

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name  string
	setup func(e *env) (instance, error)
}

var workloads = []workload{
	{"wordcount-spill", setupWordcount},
	{"hive-scanagg", func(e *env) (instance, error) { return setupHive(e, "hive-scanagg", scanAggSQL) }},
	{"hive-joinagg", func(e *env) (instance, error) { return setupHive(e, "hive-joinagg", joinAggSQL) }},
	{"service-open", setupService},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is a workload after set-up: platform built, inputs generated,
// session or service warm.
type instance interface {
	// measure runs identical jobs back to back (service-open: its open-
	// loop schedule) for d and returns what it saw from outside.
	measure(d time.Duration) *phase
	// finalCheck compares the first job's output with an independent
	// computation. It runs after the measured window.
	finalCheck() error
	// shape sizes the layer probes like this workload's inputs.
	shape() probeShape
	close()
}

// phase is everything one measured window yields without looking inside
// the program: per-job wall-clock, process CPU and allocation over the
// window, and the counters the program hands back with each result.
type phase struct {
	start     time.Time
	window    time.Duration
	wallMs    []float64 // per completed job: submit→result (service-open: due→result), calibrated
	rawWallMs []float64 // the same as measured
	jobCPUMs  float64   // calibrated CPU per completed job
	attempted int
	failed    int // failed + rejected + output mismatch

	cpuMs    float64   // process user+sys CPU over the window, as measured
	allocMB  float64   // bytes allocated over the window
	gcCPUMs  float64   // of cpuMs, spent in the collector
	gcs      uint32    // collections completed during the window
	kernelMs []float64 // calibration kernel samples taken beside the jobs

	counters   map[string]int64 // DAGResult.Counters summed over jobs
	dfsRead    int64            // FS.BytesRead delta around the jobs (not their verification)
	dfsWritten int64
	planMs     []float64 // hive workloads: Engine.Plan per job
	allocated  int       // Session.SchedulerStats deltas
	reused     int
	records    int64 // records that crossed a shuffle edge, summed over jobs

	// service-open only.
	openLoop    bool
	dueAt       []time.Time // of each completed DAG, aligned with rawWallMs
	queueWaitMs []float64
	runMs       []float64
	submitUs    []float64
	rejected    int
	lateMs      float64 // worst lateness of the generator
}

func (p *phase) completed() float64 { return float64(len(p.rawWallMs)) }

// jobWall is the figure reported as job_wall_ms: the median job of a
// closed loop; for the open loop the lower quartile of DAG latency. At a
// fixed offered rate every burst of the neighbours turns into queueing,
// which lands in the upper half of the latency distribution: over ten
// runs the median spread 8–22 %, the lower quartile — the DAG that found
// the service uncongested — 4–8 %. The median and the tail are printed
// per layer (service.dag_p50/p90/p99_ms).
func (p *phase) jobWall() float64 {
	q1, q2, _ := quartiles(p.wallMs)
	if p.openLoop {
		return q1
	}
	return q2
}

func (p *phase) addCounters(snap map[string]int64) {
	if p.counters == nil {
		p.counters = make(map[string]int64, len(snap))
	}
	for k, v := range snap {
		p.counters[k] += v
	}
}

// allocWaitMs sums the scheduler's request→assignment waits over every
// locality level and task.
func (p *phase) allocWaitMs() float64 {
	var ns int64
	for name, n := range p.counters {
		if strings.HasPrefix(name, "SCHED_ALLOC_WAIT_NS_") {
			ns += n
		}
	}
	return float64(ns) / 1e6
}

// usage is the process's cumulative resource use.
type usage struct {
	cpu   time.Duration // user+sys, getrusage
	alloc uint64        // runtime.MemStats.TotalAlloc
	gcCPU float64       // seconds, /cpu/classes/gc/total
	gcs   uint32        // completed collections
	rssMB float64       // peak resident set
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuOf(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration { return cpuOf(rusage()) }

func readUsage() usage {
	ru := rusage()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(gc)
	u := usage{
		cpu:   cpuOf(ru),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
		rssMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
	if gc[0].Value.Kind() == rtmetrics.KindFloat64 {
		u.gcCPU = gc[0].Value.Float64()
	}
	return u
}

// window brackets a measured window: collect garbage so the previous
// phase's heap is not this one's debt, then read the meters.
func (p *phase) open() usage {
	runtime.GC()
	u := readUsage()
	p.start = time.Now()
	return u
}

func (p *phase) shut(u0 usage) {
	p.window = time.Since(p.start)
	u1 := readUsage()
	p.cpuMs = float64(u1.cpu-u0.cpu) / 1e6
	p.allocMB = float64(u1.alloc-u0.alloc) / (1 << 20)
	p.gcCPUMs = (u1.gcCPU - u0.gcCPU) * 1e3
	p.gcs = u1.gcs - u0.gcs
}

// dataJobs is the closed loop the three data workloads share: one
// generator (the calling goroutine) submits a job, waits for its result,
// checks and deletes its output, and submits the next.
type dataJobs struct {
	e     *env
	name  string
	plat  *platform.Platform
	sess  *am.Session
	probe probeShape
	next  int // sequence number of the next job, warm-up included

	// run executes job no into out; parent is the job's span. It returns
	// the time spent planning (0 where there is no planner) and the
	// records the job moved across shuffle edges.
	run func(out string, parent, no int) (res am.DAGResult, plan time.Duration, records int64, err error)
	// check compares a finished job's output with the first job's (the
	// first call stores the reference).
	check func(out string) error
	final func() error
}

func (j *dataJobs) shape() probeShape { return j.probe }
func (j *dataJobs) finalCheck() error { return j.final() }

func (j *dataJobs) close() {
	j.sess.Close()
	j.plat.Stop()
}

func (j *dataJobs) warmUp() error {
	for i := 0; i < j.e.size.warmupJobs; i++ {
		if _, _, ok := j.one(nil); !ok {
			return fmt.Errorf("%s: warm-up job %d failed", j.name, i)
		}
	}
	return nil
}

func (j *dataJobs) measure(d time.Duration) *phase {
	ph := &phase{}
	alloc0, reused0 := j.sess.SchedulerStats()
	u0 := ph.open()
	// The calibration kernel runs between jobs, when nothing else does;
	// a job is scaled by the samples on either side of it.
	cal := newBothCores()
	before := cal.sample()
	var cpuMs float64
	for n := 0; time.Since(ph.start) < d || n < j.e.size.minJobs; n++ {
		wall, cpu, ok := j.one(ph)
		after := cal.sample()
		ph.kernelMs = append(ph.kernelMs, after)
		if ok {
			f := calFactor((before + after) / 2)
			ph.rawWallMs = append(ph.rawWallMs, wall)
			ph.wallMs = append(ph.wallMs, wall*f)
			cpuMs += cpu * f
		}
		before = after
	}
	ph.shut(u0)
	ph.jobCPUMs = ratio(cpuMs, ph.completed())
	alloc1, reused1 := j.sess.SchedulerStats()
	ph.allocated, ph.reused = alloc1-alloc0, reused1-reused0
	return ph
}

// one runs, checks and cleans up a single job, recording what the program
// handed back into ph (nil during warm-up). It returns the job's wall-
// clock and the process CPU spent while it ran, in milliseconds, and
// whether the job succeeded with the right output.
func (j *dataJobs) one(ph *phase) (wallMs, cpuMs float64, ok bool) {
	no := j.next
	j.next++
	out := fmt.Sprintf("/bench/out/%s-%06d", j.name, no)
	rec := j.e.rec
	jobSpan := rec.begin("job", -1, no)
	defer rec.end(jobSpan)

	read0, written0 := j.plat.FS.BytesRead(), j.plat.FS.BytesWritten()
	cpu0 := processCPU()
	start := time.Now()
	res, plan, records, err := j.run(out, jobSpan, no)
	wallMs = float64(time.Since(start)) / 1e6
	cpuMs = float64(processCPU()-cpu0) / 1e6
	read1, written1 := j.plat.FS.BytesRead(), j.plat.FS.BytesWritten()

	ok = err == nil && res.Status == am.DAGSucceeded
	if !ok {
		fmt.Fprintf(os.Stderr, "%s: job %d: status %v: %v %v\n", j.name, no, res.Status, err, res.Err)
	} else {
		vs := rec.begin("job.verify", jobSpan, no)
		if err := j.check(out); err != nil {
			fmt.Fprintf(os.Stderr, "%s: job %d: %v\n", j.name, no, err)
			ok = false
		}
		rec.end(vs)
	}
	// Outputs are deleted once checked, so memory does not grow with the
	// number of jobs.
	j.plat.FS.DeletePrefix(out + "/")

	if ph == nil {
		return wallMs, cpuMs, ok
	}
	ph.attempted++
	if !ok {
		ph.failed++
		return wallMs, cpuMs, false
	}
	ph.planMs = append(ph.planMs, float64(plan)/1e6)
	ph.records += records
	ph.dfsRead += read1 - read0
	ph.dfsWritten += written1 - written0
	if res.Counters != nil {
		ph.addCounters(res.Counters.Snapshot())
	}
	return wallMs, cpuMs, true
}

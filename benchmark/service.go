package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"tez/internal/am"
	"tez/internal/dag"
	"tez/internal/mapreduce"
	"tez/internal/platform"
	"tez/internal/service"
)

const (
	// The admission limits are far above what the offered rate needs
	// (a DAG takes 4 ms; the issue proposed queue 64 and 96 in flight).
	// When this box freezes for a few hundred milliseconds the generator
	// sends the overdue DAGs at once, and with the small limits one run in
	// twenty had DAGs refused, which fails the whole run. With these a
	// stall of several seconds shows as latency, measured from the due
	// time, and only a real overload is refused.
	svcQueueDepth  = 512
	svcMaxInFlight = 2048

	svcTenants   = 4
	svcMapTasks  = 4 // input files per tenant, one split each
	svcReducers  = 2
	svcVocab     = 600
	svcCheckEach = 100 // one output in this many is compared with the reference
)

// serviceLoad is service-open: the multi-tenant service under an open
// loop. One generator goroutine offers small MapReduce DAGs on a fixed
// schedule, round-robin over four tenants in a seeded order; each DAG
// reads its tenant's input (four map tasks, two reducers as submitted,
// about 3k records) and commits to its own directory. The control plane —
// am, cluster, event routing, fsm, mailbox, service — does most of the
// work, under real concurrency, and the library is paid per task instead
// of per record.
type serviceLoad struct {
	e      *env
	plat   *platform.Platform
	svc    *service.Service
	inputs [svcTenants][]string
	want   [svcTenants]map[string]int
	order  []int // tenant of DAG i is order[i%len(order)]
	next   int   // sequence number of the next DAG, warm-up included
	probe  probeShape

	compared int // outputs compared with the reference so far
}

func setupService(e *env) (instance, error) {
	rec := e.rec
	sp := rec.begin("setup.platform", -1, -1)
	cfg := e.platformConfig(16)
	plat := platform.New(cfg)
	rec.end(sp)

	s := &serviceLoad{e: e, plat: plat}
	sp = rec.begin("setup.data", -1, -1)
	gen := newTextGen(e.seed, svcVocab)
	nodes := plat.FS.LiveNodes()
	linesPerFile := e.size.svcLines / svcMapTasks
	var charge int64
	for t := 0; t < svcTenants; t++ {
		s.want[t] = map[string]int{}
		for f := 0; f < svcMapTasks; f++ {
			path := fmt.Sprintf("/bench/in/t%d/words-%d", t, f)
			c, err := writeText(plat.FS, path, nodes[(t*svcMapTasks+f)%len(nodes)], gen, linesPerFile, s.want[t])
			if err != nil {
				plat.Stop()
				return nil, err
			}
			charge = c
			s.inputs[t] = append(s.inputs[t], path)
		}
	}
	// Every block of four DAGs visits each tenant once, in an order the
	// seed picks; 64 blocks before the schedule repeats.
	rng := rand.New(rand.NewSource(e.seed))
	for b := 0; b < 64; b++ {
		s.order = append(s.order, rng.Perm(svcTenants)...)
	}
	rec.end(sp)

	sp = rec.begin("setup.session", -1, -1)
	s.svc = service.New(plat, service.Config{
		Tenants: []service.TenantConfig{
			{Name: "t0", Weight: 2, Workers: 4, QueueDepth: svcQueueDepth},
			{Name: "t1", Weight: 1, Workers: 4, QueueDepth: svcQueueDepth},
			{Name: "t2", Weight: 1, Workers: 4, QueueDepth: svcQueueDepth},
			{Name: "t3", Weight: 1, Workers: 4, QueueDepth: svcQueueDepth},
		},
		MaxInFlight: svcMaxInFlight,
		Journal:     e.journal,
	})
	rec.end(sp)

	// The sort probe replays one map task: a few hundred tiny records in
	// one run, so fixed per-task cost dominates.
	probeGen := newTextGen(e.seed+1, svcVocab)
	probeKeys := make([][]byte, linesPerFile*wordsPerLine)
	for i := range probeKeys {
		probeKeys[i] = []byte(probeGen.word())
	}
	perTaskRecords := int64(linesPerFile * wordsPerLine)
	s.probe = probeShape{
		nodes:      16,
		sortKeys:   probeKeys,
		sortValue:  []byte("1"),
		sortBytes:  -1,
		parts:      svcReducers,
		fetchBytes: int(charge-perTaskRecords*sortChargePerRecord) / svcReducers,
		fileBytes:  linesPerFile * wordsPerLine * 8,
		dfs:        cfg.DFS,
		shuffle:    cfg.Shuffle,
	}

	sp = rec.begin("setup.warmup", -1, -1)
	warm := s.openLoop(e.size.svcWarmup, false)
	rec.end(sp)
	if warm.failed > 0 {
		s.close()
		return nil, fmt.Errorf("service-open: %d of %d warm-up DAGs failed", warm.failed, warm.attempted)
	}
	return s, nil
}

func (s *serviceLoad) shape() probeShape { return s.probe }

func (s *serviceLoad) close() {
	s.svc.Drain(service.DrainFinish)
	s.svc.Close()
	s.plat.Stop()
}

func (s *serviceLoad) finalCheck() error {
	if s.compared == 0 {
		return fmt.Errorf("service-open: no output was compared with the reference")
	}
	return nil
}

// nextDAG numbers the next DAG, picks its tenant from the seeded schedule
// and builds it.
func (s *serviceLoad) nextDAG() (no, tenant int, out string, d *dag.DAG, err error) {
	no = s.next
	s.next++
	tenant = s.order[no%len(s.order)]
	out = fmt.Sprintf("/bench/out/svc-%06d", no)
	d, err = mapreduce.BuildDAG(mapreduce.JobConf{
		Name:       fmt.Sprintf("svc-%d", no),
		Map:        tokenizeFunc,
		Reduce:     countFunc,
		InputPaths: s.inputs[tenant],
		OutputPath: out,
		Reducers:   svcReducers,
	})
	return no, tenant, out, d, err
}

func (s *serviceLoad) measure(d time.Duration) *phase {
	n := int(d.Seconds() * s.e.size.svcRate)
	if n < s.e.size.minJobs {
		n = s.e.size.minJobs
	}
	return s.openLoop(n, true)
}

// offered is one admitted DAG on its way from the generator to the
// collector.
type offered struct {
	sub      *service.Submission
	no       int
	tenant   int
	out      string
	span     int
	due      time.Time
	returned time.Time // when Submit returned
}

// openLoop offers n DAGs at the configured rate whatever the service
// does with them, and returns once every admitted one has reached a
// terminal Result. Latency runs from the time a DAG was due to be sent,
// so a stall shows in the DAGs queued behind it. A rejected or failed DAG
// counts as failed. With calibrate set, a sampler times the calibration
// kernel beside the load and every latency is scaled by the samples
// around its due time.
func (s *serviceLoad) openLoop(n int, calibrate bool) *phase {
	rec := s.e.rec
	ph := &phase{openLoop: true}
	interval := time.Duration(float64(time.Second) / s.e.size.svcRate)

	// The buffer is MaxInFlight, the most DAGs that can be admitted and
	// unfinished, so the generator waits for the collector only when that
	// many results are waiting to be collected; the delay would be charged
	// to every DAG behind it, because latency runs from the due time, and
	// show in bench.generator_late_ms.
	ch := make(chan offered, svcMaxInFlight)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for o := range ch {
			s.collect(ph, o)
		}
	}()

	// The generator counts on its own and merges after the collector is
	// done, so the two goroutines share no field of ph.
	var attempted, failed, rejected int
	var lateMs float64
	var submitUs []float64
	u0 := ph.open()
	var smp *sampler
	if calibrate {
		smp = startSampler()
	}
	for i := 0; i < n; i++ {
		due := ph.start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if late := float64(time.Since(due)) / 1e6; late > lateMs {
			lateMs = late
		}
		no, tenant, out, d, err := s.nextDAG()
		attempted++
		jobSpan := rec.begin("job", -1, no)
		if err != nil {
			fmt.Fprintf(os.Stderr, "service-open: DAG %d: %v\n", no, err)
			failed++
			rec.end(jobSpan)
			continue
		}
		ss := rec.begin("svc.submit", jobSpan, no)
		t1 := time.Now()
		sub, err := s.svc.Submit(fmt.Sprintf("t%d", tenant), d)
		t2 := time.Now()
		rec.end(ss)
		submitUs = append(submitUs, float64(t2.Sub(t1))/1e3)
		if err != nil {
			rejected++
			failed++
			rec.end(jobSpan)
			continue
		}
		ch <- offered{sub: sub, no: no, tenant: tenant, out: out, span: jobSpan, due: due, returned: t2}
	}
	close(ch)
	wg.Wait()
	ph.shut(u0)

	// Scale: each latency by the kernel around its due time, the window's
	// CPU (less what the sampler itself burnt) by the kernel's median.
	ph.wallMs = append([]float64(nil), ph.rawWallMs...)
	ph.jobCPUMs = ratio(ph.cpuMs, ph.completed())
	if calibrate {
		series := smp.finish()
		var samplerMs float64
		for _, c := range series {
			ph.kernelMs = append(ph.kernelMs, c.ms)
			samplerMs += c.ms
		}
		for i, due := range ph.dueAt {
			ph.wallMs[i] *= calFactor(series.kernelAt(due))
		}
		ph.jobCPUMs = ratio(ph.cpuMs-samplerMs, ph.completed()) * calFactor(median(ph.kernelMs))
	}

	ph.attempted += attempted
	ph.failed += failed
	ph.rejected = rejected
	ph.lateMs = lateMs
	ph.submitUs = submitUs
	return ph
}

// collect waits for one admitted DAG, checks it and deletes its output.
func (s *serviceLoad) collect(ph *phase, o offered) {
	rec := s.e.rec
	ws := rec.begin("svc.wait", o.span, o.no)
	res := o.sub.Wait()
	rec.end(ws)

	ok := res.Status == am.DAGSucceeded && res.Err == nil
	if !ok {
		fmt.Fprintf(os.Stderr, "service-open: DAG %d: status %v: %v\n", o.no, res.Status, res.Err)
	} else if o.no%svcCheckEach == 0 {
		vs := rec.begin("job.verify", o.span, o.no)
		parts, err := readParts(s.plat.FS, o.out)
		if err == nil {
			err = checkCounts(parts, s.want[o.tenant])
		}
		rec.end(vs)
		s.compared++
		if err != nil {
			fmt.Fprintf(os.Stderr, "service-open: DAG %d: %v\n", o.no, err)
			ok = false
		}
	}
	s.plat.FS.DeletePrefix(o.out + "/")
	rec.end(o.span)

	if !ok {
		ph.failed++
		return
	}
	// Result.Total starts at admission, which Submit stamps just before
	// it returns.
	ph.rawWallMs = append(ph.rawWallMs, float64(o.returned.Sub(o.due)+res.Total)/1e6)
	ph.dueAt = append(ph.dueAt, o.due)
	ph.queueWaitMs = append(ph.queueWaitMs, float64(res.QueueWait)/1e6)
	ph.runMs = append(ph.runMs, float64(res.RunTime)/1e6)
}

// shadow runs n of the same DAGs one at a time through a bare session on
// the service's platform. The service hands back no counters, and what a
// DAG of this shape sorts, fetches, reads and writes does not depend on
// what runs beside it, so this is where service-open's counter-based
// per-layer numbers come from. Nothing here is timed.
func (s *serviceLoad) shadow(n int) (*phase, error) {
	sess := am.NewSession(s.plat, am.Config{Name: "shadow"})
	defer sess.Close()
	ph := &phase{}
	alloc0, reused0 := sess.SchedulerStats()
	for i := 0; i < n; i++ {
		no, _, out, d, err := s.nextDAG()
		if err != nil {
			return nil, err
		}
		read0, written0 := s.plat.FS.BytesRead(), s.plat.FS.BytesWritten()
		res, err := sess.Run(d)
		if err != nil || res.Status != am.DAGSucceeded {
			return nil, fmt.Errorf("service-open: shadow DAG %d: status %v: %v", no, res.Status, err)
		}
		ph.dfsRead += s.plat.FS.BytesRead() - read0
		ph.dfsWritten += s.plat.FS.BytesWritten() - written0
		s.plat.FS.DeletePrefix(out + "/")
		ph.addCounters(res.Counters.Snapshot())
		ph.records += int64(s.e.size.svcLines * wordsPerLine)
		ph.rawWallMs = append(ph.rawWallMs, float64(res.Duration)/1e6)
	}
	alloc1, reused1 := sess.SchedulerStats()
	ph.allocated, ph.reused = alloc1-alloc0, reused1-reused0
	return ph, nil
}

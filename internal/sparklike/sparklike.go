// Package sparklike reproduces the Spark-on-YARN comparison of §5.4 and
// Figures 12–13: the same data-parallel computation executed by
//
//   - ServiceExecutor — the service-daemon model: a fixed pool of executor
//     containers is allocated at application start and held for the
//     application's whole lifetime, idle or not;
//   - Tez — ephemeral per-task containers through a Tez session, which
//     releases capacity whenever it has no work (the paper's argument for
//     multi-tenancy and elasticity in §4.3).
//
// The workload is the paper's: partitioning a lineitem-style dataset along
// a column (L_SHIPDATE) under multi-user concurrency. The package also
// provides the iterative K-means job of Figure 11, run either as
// per-iteration DAGs in one shared (pre-warmed) Tez session or as
// one-job-per-iteration with a fresh AM and no reuse (the MR model).
package sparklike

import (
	"fmt"
	"sync"
	"time"

	"tez/internal/am"
	"tez/internal/cluster"
	"tez/internal/col"
	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/relop"
	"tez/internal/runtime"
)

// PartitionJob describes the Figure 12/13 workload: cluster a table's rows
// into Partitions buckets by KeyCol and store the result.
type PartitionJob struct {
	Table      *relop.Table
	KeyCol     int
	Partitions int
	OutPath    string
}

// RunPartitionTez executes the job with ephemeral Tez tasks in sess: a
// 2-vertex DAG whose map vertex buckets rows (unordered partitioned
// transport — the same per-row work the service executor does) and whose
// reduce vertex writes each bucket out.
func RunPartitionTez(sess *am.Session, name string, job PartitionJob) error {
	d := partitionDAG(name, job)
	res, err := sess.Run(d)
	if err != nil {
		return err
	}
	if res.Status != am.DAGSucceeded {
		return fmt.Errorf("sparklike: partition job %s: %v", name, res.Status)
	}
	return nil
}

// Service is the daemon-model executor pool.
type Service struct {
	plat *platform.Platform
	app  *cluster.Application
	name string

	mu         sync.Mutex
	containers []*cluster.Container
	queue      chan func() // tasks dispatched to executor workers
	wg         sync.WaitGroup
	closed     bool
}

// StartService allocates and launches `executors` containers and holds
// them until Close — the daemon execution model the paper contrasts with
// Tez's ephemeral tasks (§4.3). It blocks until the full pool is
// allocated; once softWait passes it settles for a partial pool, and a
// fully starved daemon keeps waiting for its first executor (up to a hard
// cap of 20× softWait) exactly as a service queued behind other daemons
// on a busy cluster would — the contention Figures 12–13 visualise.
func StartService(plat *platform.Platform, name string, executors int, res cluster.Resource, softWait time.Duration) (*Service, error) {
	s := &Service{
		plat:  plat,
		app:   plat.RM.Submit(name),
		name:  name,
		queue: make(chan func()),
	}
	for i := 0; i < executors; i++ {
		s.app.Request(&cluster.ContainerRequest{Resource: res})
	}
	soft := time.NewTimer(softWait)
	defer soft.Stop()
	// hard is armed once softWait has passed; from then on the first
	// executor ends the wait.
	var hard <-chan time.Time
	var batch []cluster.Event
	for len(s.containers) < executors && (hard == nil || len(s.containers) == 0) {
		select {
		case <-soft.C:
			hard = time.After(19 * softWait)
		case <-hard:
			s.Close()
			return nil, fmt.Errorf("sparklike: %s: no executors allocated within %v", name, 20*softWait)
		case <-s.app.Events().Ready():
			batch, _ = s.app.Events().Drain(batch)
			for _, ev := range batch {
				if ae, isAlloc := ev.(cluster.AllocatedEvent); isAlloc && ae.Container.Launch() == nil {
					s.containers = append(s.containers, ae.Container)
				}
			}
		}
	}
	// One worker per executor: tasks run inside the held containers.
	for _, c := range s.containers {
		c := c
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for fn := range s.queue {
				fn := fn
				_ = c.Exec(func(<-chan struct{}) error { fn(); return nil })
			}
		}()
	}
	return s, nil
}

// Executors returns the pool size.
func (s *Service) Executors() int { return len(s.containers) }

// runTasks executes the closures on the pool and waits for all of them.
func (s *Service) runTasks(tasks []func() error) error {
	var wg sync.WaitGroup
	errCh := make(chan error, len(tasks))
	for _, t := range tasks {
		t := t
		wg.Add(1)
		s.queue <- func() {
			defer wg.Done()
			if err := t(); err != nil {
				errCh <- err
			}
		}
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// Close releases the executor pool.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
	s.app.Unregister()
}

// Registered processor names for the Tez partition job.
const (
	partMapProcessor    = "sparklike.partition_map"
	partReduceProcessor = "sparklike.partition_reduce"
)

func init() {
	runtime.RegisterProcessor(partMapProcessor, func() runtime.Processor { return &partMap{} })
	runtime.RegisterProcessor(partReduceProcessor, func() runtime.Processor { return &partReduce{} })
}

type partCfg struct{ KeyCol int }

// partMap reads table rows and emits (encodedKey, row-encoded row) pairs.
type partMap struct {
	ctx *runtime.Context
	cfg partCfg
}

func (p *partMap) Initialize(ctx *runtime.Context) error {
	p.ctx = ctx
	return plugin.Decode(ctx.Payload, &p.cfg)
}

func (p *partMap) Run(in map[string]runtime.Input, out map[string]runtime.Output) error {
	rd, err := in["rows"].Reader()
	if err != nil {
		return err
	}
	kv := rd.(runtime.KVReader)
	wAny, err := out["reduce"].Writer()
	if err != nil {
		return err
	}
	w := wAny.(runtime.KVWriter)
	r := col.NewStripeRows(kv)
	var key, val []byte
	for r.Next() {
		key = col.AppendKeyEncoded(key[:0], r.Batch().Col(p.cfg.KeyCol), r.Row())
		val = col.AppendRowEncoded(val[:0], r.Batch(), r.Row())
		if err := w.Write(key, val); err != nil {
			return err
		}
	}
	return r.Err()
}

func (p *partMap) Close() error { return nil }

// partReduce writes its bucket to the sink unchanged.
type partReduce struct{ ctx *runtime.Context }

func (p *partReduce) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }

func (p *partReduce) Run(in map[string]runtime.Input, out map[string]runtime.Output) error {
	rd, err := in["map"].Reader()
	if err != nil {
		return err
	}
	kv := rd.(runtime.KVReader)
	wAny, err := out["sink"].Writer()
	if err != nil {
		return err
	}
	w := wAny.(runtime.KVWriter)
	for kv.Next() {
		if err := w.Write(nil, kv.Value()); err != nil {
			return err
		}
	}
	return kv.Err()
}

func (p *partReduce) Close() error { return nil }

// partitionDAG builds the 2-vertex repartitioning DAG.
func partitionDAG(name string, job PartitionJob) *dag.DAG {
	d := dag.New(name)
	m := d.AddVertex("map", plugin.Desc(partMapProcessor, partCfg{KeyCol: job.KeyCol}), -1)
	m.Sources = []dag.DataSource{library.DFSSource("rows", job.Table.Files, 256*1024)}
	r := d.AddVertex("reduce", plugin.Desc(partReduceProcessor, nil), job.Partitions)
	r.Sinks = []dag.DataSink{library.DFSSink("sink", job.OutPath)}
	d.Connect(m, r, library.UnorderedPartitionedEdge())
	return d
}

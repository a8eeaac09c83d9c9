package am

import (
	"fmt"
	"sync"
	"time"

	"tez/internal/cluster"
	"tez/internal/dag"
	"tez/internal/metrics"
	"tez/internal/platform"
)

// Session is a Tez AM in session mode (§4.2): one YARN application that
// runs a sequence of DAGs, re-using containers within and across DAGs
// (Figure 7), optionally pre-warming capacity before the first DAG.
type Session struct {
	cfg    Config
	plat   *platform.Platform
	app    *cluster.Application
	sched  *scheduler
	health *nodeHealth

	mu     sync.Mutex
	seq    int
	active map[string]*dagRun
	closed bool

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewSession registers the application with the RM and starts the event
// drain and housekeeping loops.
func NewSession(plat *platform.Platform, cfg Config) *Session {
	cfg = cfg.withDefaults()
	s := &Session{
		cfg:    cfg,
		plat:   plat,
		active: make(map[string]*dagRun),
		stopCh: make(chan struct{}),
	}
	s.app = plat.RM.SubmitTenant(cfg.Name, cfg.Tenant)
	s.health = newNodeHealth(cfg, len(plat.RM.Nodes()))
	s.sched = newScheduler(cfg, s.app, s.health)
	s.wg.Add(2)
	go s.drainClusterEvents()
	go s.housekeeping()
	if cfg.PrewarmContainers > 0 {
		s.sched.prewarm(cfg.PrewarmContainers)
	}
	return s
}

// drainClusterEvents forwards RM notifications to the scheduler and the
// active DAG runs.
func (s *Session) drainClusterEvents() {
	defer s.wg.Done()
	// Batch drain: the RM delivers a scheduling pass's grants as one
	// PutAll, so pick them all up with one lock round-trip too.
	var batch []cluster.Event
	for {
		var ok bool
		batch, ok = s.app.Events().GetAll(batch)
		if !ok {
			return
		}
		for i, ev := range batch {
			batch[i] = nil
			switch e := ev.(type) {
			case cluster.AllocatedEvent:
				s.sched.onAllocated(e.Container, e.Request)
			case cluster.ContainerStoppedEvent:
				s.sched.onContainerStopped(e.ContainerID)
			case cluster.NodeFailedEvent:
				s.mu.Lock()
				runs := make([]*dagRun, 0, len(s.active))
				for _, r := range s.active {
					runs = append(runs, r)
				}
				s.mu.Unlock()
				for _, r := range runs {
					r.mb.Put(msgNodeFailed{node: e.Node, planned: e.Decommissioned})
				}
			}
		}
	}
}

// housekeeping releases idle containers periodically.
func (s *Session) housekeeping() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.ContainerIdleRelease / 2)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			s.sched.reapIdle()
		}
	}
}

// DAGRun is the client handle onto a submitted DAG.
type DAGRun struct {
	run *dagRun
}

// ID returns the unique run id (also the shuffle/checkpoint namespace).
func (h *DAGRun) ID() string { return h.run.id }

// Wait blocks until the DAG terminates.
func (h *DAGRun) Wait() DAGResult {
	<-h.run.done
	return h.run.result
}

// Kill aborts the DAG.
func (h *DAGRun) Kill(reason string) { h.run.mb.Put(msgKill{reason: reason}) }

// SubmitOption configures one Submit.
type SubmitOption func(*dagRun)

// WithDeadline bounds the run's wall-clock duration: a DAG still running
// after d is killed with a DAGKilled result whose Err satisfies
// errors.Is(err, ErrDeadlineExceeded). Zero or negative means no bound.
func WithDeadline(d time.Duration) SubmitOption {
	return func(r *dagRun) { r.deadline = d }
}

// Submit starts a DAG in this session and returns immediately.
func (s *Session) Submit(d *dag.DAG, opts ...SubmitOption) (*DAGRun, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("am: session closed")
	}
	s.seq++
	id := fmt.Sprintf("%s.%s.%d", s.cfg.Name, d.Name, s.seq)
	s.mu.Unlock()

	run, err := newDAGRun(s, d, id)
	if err != nil {
		return nil, err
	}
	for _, o := range opts {
		o(run)
	}
	s.cfg.Timeline.TagStream(id, s.cfg.Tenant)
	s.mu.Lock()
	if s.closed {
		// Close ran between the admission check and here; the run has no
		// goroutines yet, so refusing is a clean unwind.
		s.mu.Unlock()
		return nil, fmt.Errorf("am: session closed")
	}
	s.active[id] = run
	s.mu.Unlock()
	run.start()
	return &DAGRun{run: run}, nil
}

// Run submits a DAG and waits for its result.
func (s *Session) Run(d *dag.DAG, opts ...SubmitOption) (DAGResult, error) {
	h, err := s.Submit(d, opts...)
	if err != nil {
		return DAGResult{}, err
	}
	res := h.Wait()
	return res, res.Err
}

func (s *Session) runFinished(r *dagRun) {
	s.mu.Lock()
	delete(s.active, r.id)
	s.mu.Unlock()
}

// SchedulerStats exposes allocation/reuse counters (tests, benchmarks).
func (s *Session) SchedulerStats() (allocated, reused int) {
	st := s.sched.snapshot()
	return st.Allocated, st.Reused
}

// NodeHealth returns the session's per-node failure and blacklist report
// (empty when blacklisting is disabled).
func (s *Session) NodeHealth() metrics.NodeHealthReport {
	return s.health.report()
}

// Close kills active DAGs, releases containers and unregisters the app.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	runs := make([]*dagRun, 0, len(s.active))
	for _, r := range s.active {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	for _, r := range runs {
		r.mb.Put(msgKill{reason: "session closed"})
		<-r.done
	}
	close(s.stopCh)
	s.sched.close()
	s.app.Unregister() // closes the event mailbox, ending the drain loop
	s.wg.Wait()
}

// RunDAG is the non-session convenience: a dedicated AM for one DAG, torn
// down afterwards (the Tez non-session mode).
func RunDAG(plat *platform.Platform, cfg Config, d *dag.DAG) (DAGResult, error) {
	s := NewSession(plat, cfg)
	defer s.Close()
	return s.Run(d)
}

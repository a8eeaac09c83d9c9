package am

import (
	"fmt"
	"sync"
	"time"

	"tez/internal/cluster"
	"tez/internal/dag"
	"tez/internal/mailbox"
	"tez/internal/metrics"
	"tez/internal/platform"
)

// Session is a Tez AM in session mode (§4.2): one YARN application that
// runs a sequence of DAGs, re-using containers within and across DAGs
// (Figure 7), optionally pre-warming capacity before the first DAG.
//
// One goroutine, the loop, is the AM: it owns the scheduler, the active
// runs and every run's state machines, the way Tez's central dispatcher
// drives them (§3.3). Everything else reaches it through its mailbox.
type Session struct {
	cfg    Config
	plat   *platform.Platform
	app    *cluster.Application
	sched  *scheduler
	health *nodeHealth
	// mb is the AM mailbox. Submit, Kill and Close post to it, and so do
	// the task, launch, initializer and commit goroutines; the loop alone
	// reads it.
	mb *mailbox.Mailbox[amMsg]

	// mu orders admission: Submit and Recover post their run, and Close
	// its shutdown, under it, so a run admitted before Close is started
	// before the shutdown is handled.
	mu     sync.Mutex
	seq    int
	closed bool

	// Owned by the loop: the runs started and not yet retired, and the
	// ticker driving their periodic checks (stopped while there are none).
	active []*dagRun
	tick   *time.Ticker

	done chan struct{} // closed when the loop returns
}

// runTickInterval paces every active run's speculation, deadlock and
// deadline checks: a deadline fires at most one tick late.
func runTickInterval(cfg Config) time.Duration {
	return min(cfg.SpeculationInterval, deadlockCheckInterval)
}

// NewSession registers the application with the RM and starts the loop.
func NewSession(plat *platform.Platform, cfg Config) *Session {
	cfg = cfg.withDefaults()
	s := &Session{
		cfg:  cfg,
		plat: plat,
		mb:   mailbox.New[amMsg](),
		done: make(chan struct{}),
	}
	s.app = plat.RM.SubmitTenant(cfg.Name, cfg.Tenant)
	s.health = newNodeHealth(cfg, len(plat.RM.Nodes()))
	s.sched = newScheduler(cfg, s.app, s.health, s.mb)
	s.tick = time.NewTicker(runTickInterval(cfg))
	s.tick.Stop()
	go s.loop()
	return s
}

// loop is the session's one select: the AM mailbox, the application's RM
// events, the idle-reap ticker and the run ticker. It returns when it
// handles Close's shutdown.
func (s *Session) loop() {
	defer close(s.done)
	reap := time.NewTicker(s.cfg.ContainerIdleRelease / 2)
	defer reap.Stop()
	defer s.tick.Stop()
	s.sched.prewarm(s.cfg.PrewarmContainers)
	// Batch drains: one lock round-trip per backlog, not per message. The
	// RM delivers a scheduling pass's grants as one PutAll.
	var msgs []amMsg
	var evs []cluster.Event
	for {
		select {
		case <-s.mb.Ready():
			msgs, _ = s.mb.Drain(msgs) // only the loop closes it
			for i, m := range msgs {
				msgs[i] = nil
				if _, ok := m.(msgClose); ok {
					s.shutdown()
					return
				}
				s.dispatch(m, len(msgs))
			}
		case <-s.app.Events().Ready():
			evs, _ = s.app.Events().Drain(evs) // only the loop's Unregister closes it
			for i, ev := range evs {
				evs[i] = nil
				s.dispatch(ev, len(evs))
			}
		case <-reap.C:
			s.sched.reapIdle()
		case <-s.tick.C:
			now := time.Now()
			for _, r := range s.active {
				if !r.isFinished() {
					r.onTick(now)
				}
			}
			s.settle()
		}
	}
}

// dispatch runs one message's handler, then settles. A message for a
// finished run is dropped; batch is the size of the drained batch it came
// in, recorded into the run's backlog gauge.
func (s *Session) dispatch(m amMsg, batch int) {
	switch msg := m.(type) {
	case cluster.AllocatedEvent:
		s.sched.onAllocated(msg.Container, msg.Request)
	case cluster.ContainerStoppedEvent:
		s.sched.onContainerStopped(msg.ContainerID)
	case cluster.NodeFailedEvent:
		for _, r := range s.active {
			r.onNodeFailed(msg.Node, msg.Decommissioned)
		}
	case msgLaunched:
		s.sched.onLaunched(msg.pc, msg.req, msg.err)
	case *dagRun: // admitted by Submit or Recover
		s.start(msg, batch)
	case *msgAttemptDone:
		r, at, err := msg.r, msg.at, msg.err
		*msg = msgAttemptDone{}
		attemptDonePool.Put(msg)
		if r.accepts(batch) {
			r.onAttemptDone(at, err)
		}
	case *msgTaskEvent:
		r, at, ev := msg.r, msg.at, msg.ev
		*msg = msgTaskEvent{}
		taskEventPool.Put(msg)
		if r.accepts(batch) {
			r.onTaskEvent(at, ev)
		}
	case msgInitDone:
		if msg.r.accepts(batch) {
			msg.r.onInitDone(msg.vs, msg.source, msg.res, msg.err)
		}
	case msgCommitDone:
		if msg.r.accepts(batch) {
			msg.r.onCommitDone(msg.vs, msg.err)
		}
	case msgParQuery:
		if msg.r.accepts(batch) {
			msg.r.onParQuery(msg)
		}
	case msgKill:
		if msg.r.accepts(batch) {
			msg.r.fail(DAGKilled, fmt.Errorf("am: dag %s killed: %s", msg.r.id, msg.reason))
		}
	case func():
		msg() // tests read loop-owned state through this
	}
	s.settle()
}

// start begins a submitted or recovered run.
func (s *Session) start(r *dagRun, batch int) {
	r.started = r.clock()
	r.observeBacklog(batch)
	if r.deadline > 0 {
		r.deadlineAt = time.Now().Add(r.deadline)
	}
	if a := s.plat.Authority; a != nil {
		r.token = a.Issue(r.id)
	}
	if len(s.active) == 0 {
		s.tick.Reset(runTickInterval(s.cfg))
	}
	s.active = append(s.active, r)
	r.bootstrap()
}

// settle runs after every handler. It delivers the assignments the
// handler found — never inside it, where an attempt's transitions would
// fire within another transition's hook — then retires the runs the
// handler finished.
func (s *Session) settle() {
	s.sched.deliver()
	kept := s.active[:0]
	for _, r := range s.active {
		if r.isFinished() {
			r.finish()
		} else {
			kept = append(kept, r)
		}
	}
	if len(kept) == len(s.active) {
		return
	}
	clear(s.active[len(kept):])
	s.active = kept
	if len(kept) == 0 {
		s.tick.Stop()
	}
}

// shutdown kills every active run and unregisters the application, which
// withdraws its container requests and releases its containers.
func (s *Session) shutdown() {
	for _, r := range s.active {
		r.fail(DAGKilled, fmt.Errorf("am: dag %s killed: session closed", r.id))
	}
	s.settle()
	s.app.Unregister()
	s.mb.Close()
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
func (h *DAGRun) Kill(reason string) { h.run.session.mb.Put(msgKill{r: h.run, reason: reason}) }

// SubmitOption configures one Submit.
type SubmitOption func(*dagRun)

// WithDeadline bounds the run's wall-clock duration: a DAG still running
// after d is killed with a DAGKilled result whose Err satisfies
// errors.Is(err, ErrDeadlineExceeded). The session checks deadlines on its
// run ticker, so the kill lands at most one tick (5ms) after d. Zero or
// negative means no bound.
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
	return s.admit(run)
}

// admit posts a run to the loop unless the session has closed meanwhile.
func (s *Session) admit(r *dagRun) (*DAGRun, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("am: session closed")
	}
	s.mb.Put(r)
	return &DAGRun{run: r}, nil
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

// SchedulerStats exposes allocation/reuse counters (tests, benchmarks).
func (s *Session) SchedulerStats() (allocated, reused int) {
	return int(s.sched.allocated.Load()), int(s.sched.reused.Load())
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
	s.mb.Put(msgClose{})
	s.mu.Unlock()
	<-s.done
}

// RunDAG is the non-session convenience: a dedicated AM for one DAG, torn
// down afterwards (the Tez non-session mode).
func RunDAG(plat *platform.Platform, cfg Config, d *dag.DAG) (DAGResult, error) {
	s := NewSession(plat, cfg)
	defer s.Close()
	return s.Run(d)
}

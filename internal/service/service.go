// Package service is the long-lived multi-tenant DAG serving surface:
// where a Session is one client's AM, the Service is the fleet-facing
// daemon that accepts a firehose of concurrent DAG submissions from many
// named tenants and survives overload and per-tenant faults gracefully.
//
// The pipeline per submission is admission → quota → fair share →
// deadline → drain:
//
//   - admission: each tenant has a bounded queue and a worker pool; the
//     service has a global in-flight cap. Overload is shed at the door
//     with typed rejections (ErrQueueFull, ErrOverQuota, ErrDraining) —
//     nothing buffers unboundedly.
//   - quota + fair share: each tenant maps to a cluster tenant group
//     (cluster.SetTenant): the RM's scheduling pass enforces the
//     tenant's hard memory quota and orders grants by weighted fair
//     share across tenants. It preempts nothing unless the platform's
//     cluster.Config sets FairPreemption, which no shipped program
//     (tez-service runs on platform.Fast) does.
//   - deadlines: submissions carry an optional deadline (per-submission
//     option or tenant default); overdue DAGs are killed with a result
//     whose Err satisfies errors.Is(err, am.ErrDeadlineExceeded).
//   - drain: Drain stops admission, then finishes or kills in-flight
//     work by policy and flushes the timeline journal; Close drains and
//     tears the tenant sessions down.
package service

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"tez/internal/am"
	"tez/internal/dag"
	"tez/internal/metrics"
	"tez/internal/platform"
	"tez/internal/timeline"
)

// Typed admission rejections. Callers classify with errors.Is.
var (
	// ErrQueueFull: the tenant's admission queue is at QueueDepth.
	ErrQueueFull = errors.New("service: tenant queue full")
	// ErrOverQuota: the service-wide in-flight cap is reached.
	ErrOverQuota = errors.New("service: in-flight cap reached")
	// ErrDraining: the service no longer admits work.
	ErrDraining = errors.New("service: draining")
	// ErrUnknownTenant: the tenant is not configured and dynamic tenants
	// are disabled.
	ErrUnknownTenant = errors.New("service: unknown tenant")
)

// TenantConfig declares one tenant's admission and scheduling envelope.
type TenantConfig struct {
	// Name identifies the tenant; it becomes the tenant's session and
	// cluster scheduling-group name, so DAG run ids are prefixed with it
	// (which is what tenant-scoped chaos and timeline filters key on).
	Name string
	// Weight is the tenant's fair-share weight (default 1): a weight-2
	// tenant converges to twice the cluster share of a weight-1 tenant
	// under contention.
	Weight int
	// QuotaMB hard-caps the tenant's held cluster memory (0 = unlimited);
	// enforced by the RM at grant time.
	QuotaMB int
	// QueueDepth bounds the tenant's admission queue (default 64);
	// submissions beyond it are rejected with ErrQueueFull.
	QueueDepth int
	// Workers is how many admitted DAGs the tenant runs concurrently
	// (default 4).
	Workers int
	// Deadline, when positive, is the default per-submission deadline
	// (overridable per submission with WithDeadline).
	Deadline time.Duration
}

func (tc TenantConfig) withDefaults() TenantConfig {
	if tc.Weight < 1 {
		tc.Weight = 1
	}
	if tc.QueueDepth <= 0 {
		tc.QueueDepth = 64
	}
	if tc.Workers <= 0 {
		tc.Workers = 4
	}
	return tc
}

// Config parameterises the service.
type Config struct {
	// Tenants are the statically configured tenants.
	Tenants []TenantConfig
	// AllowDynamicTenants admits unknown tenant names by materialising
	// them with a default TenantConfig; off, they are rejected with
	// ErrUnknownTenant.
	AllowDynamicTenants bool
	// MaxInFlight caps admitted-but-unfinished DAGs across all tenants
	// (default 256); past it submissions shed with ErrOverQuota.
	MaxInFlight int
	// Session is the template for per-tenant AM sessions; Name, Tenant
	// and Timeline are overwritten per tenant.
	Session am.Config
	// Journal, when set, receives every tenant's timeline streams
	// (tagged by tenant) and is flushed to JournalPath on drain.
	Journal *timeline.Journal
	// JournalPath, when set with Journal, is where Drain writes the
	// journal as JSONL.
	JournalPath string
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	return c
}

// DrainPolicy says what Drain does with admitted work.
type DrainPolicy int

const (
	// DrainFinish runs queued and running DAGs to completion (kills only
	// after drainTimeout).
	DrainFinish DrainPolicy = iota
	// DrainKill fails queued DAGs and kills running ones immediately.
	DrainKill
)

// Result is the terminal outcome of one submission.
type Result struct {
	Status am.DAGStatus
	Err    error
	// QueueWait is admission→start, RunTime start→finish, Total
	// admission→finish.
	QueueWait time.Duration
	RunTime   time.Duration
	Total     time.Duration
}

// Submission is the client handle onto one admitted DAG.
type Submission struct {
	Tenant string

	dag      *dag.DAG
	deadline time.Duration
	admitted time.Time
	started  time.Time

	done chan struct{}
	res  Result
}

// Wait blocks until the submission reaches a terminal result.
func (s *Submission) Wait() Result {
	<-s.done
	return s.res
}

// Done returns a channel closed when the submission completes.
func (s *Submission) Done() <-chan struct{} { return s.done }

// SubmitOption configures one submission.
type SubmitOption func(*Submission)

// WithDeadline bounds this submission's wall-clock duration, overriding
// the tenant default. Overdue DAGs are killed; the Result's Err
// satisfies errors.Is(err, am.ErrDeadlineExceeded).
func WithDeadline(d time.Duration) SubmitOption {
	return func(s *Submission) { s.deadline = d }
}

// tenant is the service-side state for one tenant.
type tenant struct {
	cfg     TenantConfig
	svc     *Service
	session *am.Session
	queue   chan *Submission

	// Guarded by svc.mu.
	queued            int // occupancy of queue (reserved before send)
	running           map[*Submission]*am.DAGRun
	admitted          int64
	succeeded         int64
	failed            int64
	killed            int64
	rejectedQueueFull int64
	rejectedOverQuota int64

	latency metrics.Quantiles
}

// Service is the multi-tenant DAG daemon.
type Service struct {
	cfg  Config
	plat *platform.Platform

	mu       sync.Mutex
	tenants  map[string]*tenant
	inFlight int // admitted, not yet finished, across tenants
	draining bool
	killMode bool // drain escalated: workers fail queued work instead of running it
	closed   bool

	rejectedDraining int64

	wg        sync.WaitGroup // tenant workers
	flushOnce sync.Once
}

// New builds a service over the platform and starts the configured
// tenants' sessions and worker pools.
func New(plat *platform.Platform, cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{cfg: cfg, plat: plat, tenants: make(map[string]*tenant)}
	s.mu.Lock()
	for _, tc := range cfg.Tenants {
		s.addTenantLocked(tc)
	}
	s.mu.Unlock()
	return s
}

// addTenantLocked registers the tenant with the RM, starts its session
// (named after the tenant, so run ids carry the tenant prefix) and its
// worker pool. Caller holds s.mu.
func (s *Service) addTenantLocked(tc TenantConfig) *tenant {
	tc = tc.withDefaults()
	s.plat.RM.SetTenant(tc.Name, tc.Weight, tc.QuotaMB)
	sc := s.cfg.Session
	sc.Name = tc.Name
	sc.Tenant = tc.Name
	if s.cfg.Journal != nil {
		sc.Timeline = s.cfg.Journal
	}
	t := &tenant{
		cfg:     tc,
		svc:     s,
		queue:   make(chan *Submission, tc.QueueDepth),
		running: make(map[*Submission]*am.DAGRun),
	}
	t.session = am.NewSession(s.plat, sc)
	s.tenants[tc.Name] = t
	s.wg.Add(tc.Workers)
	for i := 0; i < tc.Workers; i++ {
		go t.worker()
	}
	return t
}

// Submit admits one DAG for the named tenant, or rejects it with a typed
// error: ErrDraining once draining, ErrUnknownTenant for unconfigured
// tenants (unless AllowDynamicTenants), ErrOverQuota at the global
// in-flight cap, ErrQueueFull at the tenant's queue bound. Admission is
// O(1) and never blocks: the queue send happens under the lock into
// capacity reserved by the queued counter.
func (s *Service) Submit(tenantName string, d *dag.DAG, opts ...SubmitOption) (*Submission, error) {
	sub := &Submission{Tenant: tenantName, dag: d, done: make(chan struct{})}
	for _, o := range opts {
		o(sub)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		s.rejectedDraining++
		return nil, ErrDraining
	}
	t := s.tenants[tenantName]
	if t == nil {
		if !s.cfg.AllowDynamicTenants || tenantName == "" {
			return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenantName)
		}
		t = s.addTenantLocked(TenantConfig{Name: tenantName})
	}
	if s.inFlight >= s.cfg.MaxInFlight {
		t.rejectedOverQuota++
		return nil, fmt.Errorf("%w (%d)", ErrOverQuota, s.cfg.MaxInFlight)
	}
	if t.queued >= t.cfg.QueueDepth {
		t.rejectedQueueFull++
		return nil, fmt.Errorf("%w: tenant %s (%d)", ErrQueueFull, tenantName, t.cfg.QueueDepth)
	}
	if sub.deadline <= 0 {
		sub.deadline = t.cfg.Deadline
	}
	s.inFlight++
	t.queued++
	t.admitted++
	sub.admitted = time.Now()
	t.queue <- sub // capacity reserved above: never blocks
	return sub, nil
}

// worker runs one tenant execution slot until the queue is drained and
// closed.
func (t *tenant) worker() {
	defer t.svc.wg.Done()
	for sub := range t.queue {
		t.runOne(sub)
	}
}

// runOne executes one admitted submission through the tenant's session.
func (t *tenant) runOne(sub *Submission) {
	s := t.svc
	s.mu.Lock()
	t.queued--
	killQueued := s.draining && s.killQueuedLocked()
	if !killQueued {
		sub.started = time.Now()
		t.running[sub] = nil // placeholder until the handle exists
	}
	s.mu.Unlock()
	if killQueued {
		s.finish(t, sub, Result{Status: am.DAGKilled, Err: ErrDraining})
		return
	}

	var opts []am.SubmitOption
	if sub.deadline > 0 {
		opts = append(opts, am.WithDeadline(sub.deadline))
	}
	h, err := t.session.Submit(sub.dag, opts...)
	if err != nil {
		s.mu.Lock()
		delete(t.running, sub)
		s.mu.Unlock()
		s.finish(t, sub, Result{Status: am.DAGFailed, Err: err})
		return
	}
	s.mu.Lock()
	t.running[sub] = h
	kill := s.draining && s.killQueuedLocked()
	s.mu.Unlock()
	if kill {
		h.Kill("service draining")
	}
	res := h.Wait()
	s.mu.Lock()
	delete(t.running, sub)
	s.mu.Unlock()
	s.finish(t, sub, Result{Status: res.Status, Err: res.Err})
}

// killQueuedLocked reports whether drain has escalated to killing.
// Caller holds s.mu.
func (s *Service) killQueuedLocked() bool { return s.killMode }

// finish settles one submission: accounting, latency digest, handle
// completion.
func (s *Service) finish(t *tenant, sub *Submission, res Result) {
	now := time.Now()
	if sub.started.IsZero() {
		res.QueueWait = now.Sub(sub.admitted)
	} else {
		res.QueueWait = sub.started.Sub(sub.admitted)
		res.RunTime = now.Sub(sub.started)
	}
	res.Total = now.Sub(sub.admitted)
	s.mu.Lock()
	s.inFlight--
	switch res.Status {
	case am.DAGSucceeded:
		t.succeeded++
	case am.DAGKilled:
		t.killed++
	default:
		t.failed++
	}
	s.mu.Unlock()
	t.latency.Observe(res.Total)
	sub.res = res
	close(sub.done)
}

// drainTimeout bounds how long Drain(DrainFinish) waits for in-flight work
// before escalating to kills.
const drainTimeout = 30 * time.Second

// Drain stops admission and settles in-flight work: DrainFinish lets
// queued and running DAGs complete (escalating to kills after
// drainTimeout); DrainKill fails queued submissions and kills running
// DAGs immediately. Both flush the journal to JournalPath once workers
// are idle. Drain is idempotent; concurrent calls all block until the
// drain completes.
func (s *Service) Drain(policy DrainPolicy) {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, t := range s.tenants {
			close(t.queue)
		}
	}
	s.mu.Unlock()
	if policy == DrainKill {
		s.killAdmitted()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if policy == DrainKill {
		<-done
	} else {
		select {
		case <-done:
		case <-time.After(drainTimeout):
			s.killAdmitted() // finish took too long; escalate
			<-done
		}
	}
	s.flushOnce.Do(s.flushJournal)
}

// killAdmitted switches drain into kill mode (workers fail queued
// submissions instead of running them) and kills every running DAG.
func (s *Service) killAdmitted() {
	s.mu.Lock()
	s.killMode = true
	var handles []*am.DAGRun
	for _, t := range s.tenants {
		for _, h := range t.running {
			if h != nil {
				handles = append(handles, h)
			}
		}
	}
	s.mu.Unlock()
	for _, h := range handles {
		h.Kill("service draining")
	}
}

func (s *Service) flushJournal() {
	if s.cfg.Journal == nil || s.cfg.JournalPath == "" {
		return
	}
	f, err := os.Create(s.cfg.JournalPath)
	if err != nil {
		return
	}
	defer f.Close()
	timeline.WriteJSONL(f, s.cfg.Journal.Events())
}

// Close drains with DrainKill and tears down every tenant session. Safe
// to call after an explicit Drain (already-drained work is untouched).
func (s *Service) Close() {
	s.Drain(DrainKill)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()
	for _, t := range tenants {
		t.session.Close()
	}
}

// TenantStats is one tenant's admission/outcome snapshot.
type TenantStats struct {
	Tenant                    string
	Admitted                  int64
	Succeeded, Failed, Killed int64
	RejectedQueueFull         int64
	RejectedOverQuota         int64
	Queued, Running           int
	AllocMB, QuotaMB          int
	Latency                   metrics.QuantileSummary
}

// Stats is the service-wide snapshot.
type Stats struct {
	InFlight         int
	Draining         bool
	RejectedDraining int64
	Tenants          []TenantStats
}

// Snapshot reports per-tenant admission counters, rejections, current
// occupancy, RM quota usage and the end-to-end latency digest.
func (s *Service) Snapshot() Stats {
	s.mu.Lock()
	out := Stats{
		InFlight:         s.inFlight,
		Draining:         s.draining,
		RejectedDraining: s.rejectedDraining,
	}
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	for _, t := range tenants {
		ts := TenantStats{
			Tenant:            t.cfg.Name,
			Admitted:          t.admitted,
			Succeeded:         t.succeeded,
			Failed:            t.failed,
			Killed:            t.killed,
			RejectedQueueFull: t.rejectedQueueFull,
			RejectedOverQuota: t.rejectedOverQuota,
			Queued:            t.queued,
			Running:           len(t.running),
		}
		out.Tenants = append(out.Tenants, ts)
	}
	s.mu.Unlock()
	for i := range out.Tenants {
		t := s.tenantByName(out.Tenants[i].Tenant)
		out.Tenants[i].Latency = t.latency.Summary()
		out.Tenants[i].AllocMB, out.Tenants[i].QuotaMB = s.plat.RM.TenantUsage(out.Tenants[i].Tenant)
	}
	sort.Slice(out.Tenants, func(i, j int) bool { return out.Tenants[i].Tenant < out.Tenants[j].Tenant })
	return out
}

func (s *Service) tenantByName(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[name]
}

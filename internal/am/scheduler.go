package am

import (
	"sync"
	"time"

	"tez/internal/cluster"
	"tez/internal/runtime"
	"tez/internal/timeline"
)

// taskRequest asks the scheduler for a container to run one task attempt.
type taskRequest struct {
	priority int // lower is more urgent (vertex topological depth)
	hosts    []cluster.NodeID
	racks    []string
	// assign is invoked (never under scheduler locks) with the container
	// to use. The callee owns the container until it calls release.
	assign func(*pooledContainer)
	// tag identifies the requesting DAG run (deadlock detection scope).
	tag any
	// dag is the requesting run's id, for timeline attribution ("" for
	// prewarm requests, which are session-scoped).
	dag string

	created   time.Time
	cancelled bool
	rmReq     *cluster.ContainerRequest

	// Pending-queue position (guarded by scheduler.mu): the bucket the
	// request sits in and its absolute slot index within it. bucket is nil
	// whenever the request is not queued, which makes removal idempotent.
	bucket *amBucket
	slot   int
}

// amBucket is one priority's pending FIFO. Entries are addressed by a
// stable absolute index (base + position), so a request records where it
// sits and removal is an O(1) nil-tombstone instead of the old O(R) scan
// — which ran once per allocation and made a 100k-task DAG O(R²). The
// head cursor pops over tombstones; compaction slides the live tail down
// (adjusting base so recorded slots stay valid) once the dead prefix
// dominates, bounding retained memory the same way mailbox does.
type amBucket struct {
	priority int
	reqs     []*taskRequest
	head     int // reqs[head:] may be live; reqs[:head] are dead slots
	base     int // absolute index of reqs[0]
	live     int // non-tombstone entries in reqs[head:]
}

// amBucketCompactThreshold matches the mailbox policy: compact when the
// dead prefix is both large and at least as big as the live tail.
const amBucketCompactThreshold = 32

func (b *amBucket) maybeCompact() {
	if b.head == len(b.reqs) {
		b.base += b.head
		b.reqs = b.reqs[:0]
		b.head = 0
		return
	}
	if b.head < amBucketCompactThreshold || b.head < len(b.reqs)-b.head {
		return
	}
	n := copy(b.reqs, b.reqs[b.head:])
	for i := n; i < len(b.reqs); i++ {
		b.reqs[i] = nil
	}
	b.base += b.head
	b.reqs = b.reqs[:n]
	b.head = 0
}

// pooledContainer couples a launched container with its per-container
// object registry (§4.2): the registry lives and dies with the container,
// so cached objects survive exactly as long as reuse does.
type pooledContainer struct {
	c        *cluster.Container
	registry *runtime.ObjectRegistry

	idleSince time.Time
	execs     int // assignments so far (reuse accounting; 0 = never ran a task)
}

// schedStats counts scheduler activity for tests and benchmarks.
type schedStats struct {
	Allocated int // fresh containers launched
	Reused    int // task assignments satisfied by an already-held container
}

// scheduler owns the session's container pool: it satisfies task requests
// from idle (reused) containers first, escalates the rest to the RM with
// the request's locality preferences, hands containers finishing a task to
// waiting requests (within and across DAGs — Figure 7), and releases
// containers idle for longer than the configured timeout.
type scheduler struct {
	cfg Config
	app *cluster.Application
	// health is the session's node blacklist. Blacklisted nodes are
	// excluded from RM requests and from idle-container reuse.
	health *nodeHealth
	now    timeline.Clock    // injectable (Config.Clock)
	tl     *timeline.Journal // nil-safe event sink

	mu   sync.Mutex
	idle []*pooledContainer
	// pending holds waiting requests in per-priority FIFO buckets; prios
	// keeps the bucket keys sorted ascending so takePendingLocked pops the
	// most urgent request without the old per-release stable sort.
	// livePending counts non-cancelled queued requests across all buckets.
	pending     map[int]*amBucket
	prios       []int
	livePending int
	held        map[cluster.ContainerID]*pooledContainer
	stats       schedStats
	lastAssign  time.Time
	closed      bool

	// testHookPreRequest, when set, runs after a request has been queued
	// as pending but before the RM request is issued — a deterministic
	// interleaving seam for submit/cancel race tests. Nil in production.
	testHookPreRequest func(*taskRequest)
	// testHookPreLaunch, when set, runs in onAllocated just before
	// Container.Launch — a seam for launch-failure tests.
	testHookPreLaunch func(*cluster.Container)
}

func newScheduler(cfg Config, app *cluster.Application, health *nodeHealth) *scheduler {
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	return &scheduler{
		cfg: cfg, app: app, health: health, now: now, tl: cfg.Timeline,
		pending: make(map[int]*amBucket),
		held:    make(map[cluster.ContainerID]*pooledContainer),
	}
}

// submit requests a container for a task attempt.
func (s *scheduler) submit(req *taskRequest) {
	req.created = s.now()
	s.enqueue(req)
}

// enqueue places a request with the scheduler: satisfied from an idle
// container when possible, otherwise escalated to the RM. Also used by
// onAllocated to re-submit a request whose container failed to launch.
// Cancellation can race with this path, so the cancelled flag is checked
// under the lock before anything is issued and re-checked after the RM
// request goes out (cancel may have observed rmReq == nil and withdrawn
// nothing).
func (s *scheduler) enqueue(req *taskRequest) {
	s.mu.Lock()
	if s.closed || req.cancelled {
		s.mu.Unlock()
		return
	}
	if pc := s.takeIdleLocked(req); pc != nil {
		s.stats.Reused++
		s.lastAssign = s.now()
		prior := pc.execs
		pc.execs++
		s.mu.Unlock()
		s.tl.Record(timeline.Event{
			Type: timeline.ContainerReused, DAG: req.dag,
			Node: string(pc.c.Node()), Container: int64(pc.c.ID),
			Val: int64(prior),
		})
		req.assign(pc)
		return
	}
	s.pushPendingLocked(req)
	rmReq := &cluster.ContainerRequest{
		Priority:      req.priority,
		Resource:      s.cfg.ContainerResource,
		Nodes:         req.hosts,
		Racks:         req.racks,
		RelaxLocality: true,
		Exclude:       s.health.excludedIDs(),
		Cookie:        req,
	}
	req.rmReq = rmReq
	s.mu.Unlock()
	if s.testHookPreRequest != nil {
		s.testHookPreRequest(req)
	}
	s.app.Request(rmReq)
	s.mu.Lock()
	cancelled := req.cancelled
	s.mu.Unlock()
	if cancelled {
		// cancel ran between the unlock above and the RM request being
		// issued; withdraw it now (Application.Cancel is idempotent).
		s.app.Cancel(rmReq)
	}
}

// cancel withdraws a request (e.g. the task was satisfied by a speculative
// twin). Safe if the request was already assigned, and safe to race with
// submit: enqueue re-checks the flag around its RM request.
func (s *scheduler) cancel(req *taskRequest) {
	s.mu.Lock()
	req.cancelled = true
	if req.rmReq != nil {
		s.app.Cancel(req.rmReq)
	}
	s.removePendingLocked(req)
	s.mu.Unlock()
}

// takeIdleLocked matches an idle container: same host, then same rack,
// then any (container reuse relaxes locality rather than waiting).
func (s *scheduler) takeIdleLocked(req *taskRequest) *pooledContainer {
	if s.cfg.DisableContainerReuse || len(s.idle) == 0 {
		return nil
	}
	pick := -1
	bestClass := 3
	for i, pc := range s.idle {
		if s.health.isBlacklisted(string(pc.c.Node())) {
			continue
		}
		class := 2
		for _, h := range req.hosts {
			if pc.c.Node() == h {
				class = 0
				break
			}
		}
		if class != 0 {
			for _, r := range req.racks {
				if pc.c.Rack() == r {
					class = 1
					break
				}
			}
		}
		if class < bestClass {
			bestClass, pick = class, i
		}
	}
	if pick < 0 {
		return nil
	}
	pc := s.idle[pick]
	s.idle = append(s.idle[:pick], s.idle[pick+1:]...)
	return pc
}

// onAllocated handles a fresh container from the RM.
func (s *scheduler) onAllocated(c *cluster.Container, rmReq *cluster.ContainerRequest) {
	req, _ := rmReq.Cookie.(*taskRequest)
	pc := &pooledContainer{c: c, registry: runtime.NewObjectRegistry()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.app.Release(c)
		return
	}
	s.held[c.ID] = pc
	s.stats.Allocated++
	if req != nil {
		s.removePendingLocked(req)
		if req.cancelled {
			req = nil
		}
	}
	s.lastAssign = s.now()
	s.mu.Unlock()

	// Launch outside locks: this pays the container start overhead.
	if s.testHookPreLaunch != nil {
		s.testHookPreLaunch(c)
	}
	if err := c.Launch(); err != nil {
		// The container died between allocation and launch (node loss,
		// preemption). Its request was already removed from pending, so
		// discarding alone would strand the task attempt — assign would
		// never fire. Re-submit the request instead.
		s.discard(pc)
		if req != nil {
			s.enqueue(req)
		}
		return
	}
	if req != nil {
		s.mu.Lock()
		pc.execs++
		s.mu.Unlock()
		req.assign(pc)
		return
	}
	s.release(pc, true)
}

// release returns a container after a task: hand it to a waiting request
// (reuse), park it idle, or give it back to the RM.
func (s *scheduler) release(pc *pooledContainer, reusable bool) {
	if reusable && s.health.isBlacklisted(string(pc.c.Node())) {
		reusable = false
	}
	s.mu.Lock()
	if s.closed || !reusable || s.cfg.DisableContainerReuse {
		delete(s.held, pc.c.ID)
		s.mu.Unlock()
		s.app.Release(pc.c)
		return
	}
	if req := s.takePendingLocked(); req != nil {
		if req.rmReq != nil {
			s.app.Cancel(req.rmReq)
		}
		s.stats.Reused++
		s.lastAssign = s.now()
		prior := pc.execs
		pc.execs++
		s.mu.Unlock()
		s.tl.Record(timeline.Event{
			Type: timeline.ContainerReused, DAG: req.dag,
			Node: string(pc.c.Node()), Container: int64(pc.c.ID),
			Val: int64(prior),
		})
		req.assign(pc)
		return
	}
	pc.idleSince = s.now()
	s.idle = append(s.idle, pc)
	s.mu.Unlock()
}

// discard drops a container that can no longer run work (killed node etc.).
func (s *scheduler) discard(pc *pooledContainer) {
	s.mu.Lock()
	delete(s.held, pc.c.ID)
	for i, ic := range s.idle {
		if ic == pc {
			s.idle = append(s.idle[:i], s.idle[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	s.app.Release(pc.c)
}

// onContainerStopped reacts to involuntary container loss.
func (s *scheduler) onContainerStopped(id cluster.ContainerID) {
	s.mu.Lock()
	pc := s.held[id]
	delete(s.held, id)
	if pc != nil {
		for i, ic := range s.idle {
			if ic == pc {
				s.idle = append(s.idle[:i], s.idle[i+1:]...)
				break
			}
		}
	}
	s.mu.Unlock()
}

// pushPendingLocked appends a request to its priority's FIFO, recording
// its stable slot for O(1) removal.
func (s *scheduler) pushPendingLocked(req *taskRequest) {
	b := s.pending[req.priority]
	if b == nil {
		b = &amBucket{priority: req.priority}
		s.pending[req.priority] = b
		i := len(s.prios)
		for i > 0 && s.prios[i-1] > req.priority {
			i--
		}
		s.prios = append(s.prios, 0)
		copy(s.prios[i+1:], s.prios[i:])
		s.prios[i] = req.priority
	}
	req.bucket = b
	req.slot = b.base + len(b.reqs)
	b.reqs = append(b.reqs, req)
	b.live++
	s.livePending++
}

// takePendingLocked pops the most urgent live pending request: the first
// non-tombstone entry of the lowest-priority non-empty bucket. FIFO within
// a bucket preserves the old stable-sort arrival order.
func (s *scheduler) takePendingLocked() *taskRequest {
	if s.livePending == 0 {
		return nil
	}
	for _, p := range s.prios {
		b := s.pending[p]
		if b.live == 0 {
			continue
		}
		for b.head < len(b.reqs) {
			req := b.reqs[b.head]
			b.reqs[b.head] = nil
			b.head++
			if req != nil {
				req.bucket = nil
				b.live--
				s.livePending--
				b.maybeCompact()
				return req
			}
		}
	}
	return nil
}

// removePendingLocked tombstones a queued request in place. A request not
// currently queued (bucket == nil, or already popped) is a no-op.
func (s *scheduler) removePendingLocked(req *taskRequest) {
	b := req.bucket
	if b == nil {
		return
	}
	i := req.slot - b.base
	if i < b.head || i >= len(b.reqs) || b.reqs[i] != req {
		return
	}
	b.reqs[i] = nil
	req.bucket = nil
	b.live--
	s.livePending--
	if b.live == 0 {
		b.base += len(b.reqs)
		b.reqs = b.reqs[:0]
		b.head = 0
	}
}

// reapIdle releases containers idle beyond the configured timeout; called
// periodically by the session. Sessions keep prewarmed/idle capacity only
// this long, releasing resources to the cluster (§4.3 multi-tenancy).
func (s *scheduler) reapIdle() {
	var victims []*pooledContainer
	s.mu.Lock()
	now := s.now()
	kept := s.idle[:0]
	for _, pc := range s.idle {
		if now.Sub(pc.idleSince) > s.cfg.ContainerIdleRelease {
			victims = append(victims, pc)
			delete(s.held, pc.c.ID)
		} else {
			kept = append(kept, pc)
		}
	}
	s.idle = kept
	s.mu.Unlock()
	for _, pc := range victims {
		s.app.Release(pc.c)
	}
}

// prewarm launches n containers ahead of the first DAG (§4.2, Session).
func (s *scheduler) prewarm(n int) {
	for i := 0; i < n; i++ {
		req := &taskRequest{priority: 1 << 20}
		req.assign = func(pc *pooledContainer) {
			s.mu.Lock()
			pc.execs = 0 // prewarm isn't a task execution: a later hit is a warm hit
			s.mu.Unlock()
			s.tl.Record(timeline.Event{
				Type: timeline.ContainerPrewarmed,
				Node: string(pc.c.Node()), Container: int64(pc.c.ID),
			})
			s.release(pc, true)
		}
		s.submit(req)
	}
}

// pendingInfo reports starvation state for deadlock detection, scoped to
// one DAG run's requests: their number, the oldest request age, the most
// urgent starved priority, and how long ago the session last assigned any
// container (a session making steady progress is contended, not
// deadlocked).
func (s *scheduler) pendingInfo(tag any) (n int, oldest, sinceAssign time.Duration, minPriority int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	sinceAssign = time.Duration(1 << 60)
	if !s.lastAssign.IsZero() {
		sinceAssign = now.Sub(s.lastAssign)
	}
	minPriority = 1 << 30
	for _, p := range s.prios {
		b := s.pending[p]
		for _, r := range b.reqs[b.head:] {
			if r == nil || (tag != nil && r.tag != tag) {
				continue
			}
			n++
			if age := now.Sub(r.created); age > oldest {
				oldest = age
			}
			if r.priority < minPriority {
				minPriority = r.priority
			}
		}
	}
	return n, oldest, sinceAssign, minPriority
}

// sweepRegistries evicts a finished DAG's entries from every held
// container's object registry (framework-managed lifecycle, §4.2).
func (s *scheduler) sweepRegistries(dagID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pc := range s.held {
		pc.registry.SweepDAG(dagID)
	}
}

// sweepVertexRegistries evicts a finished vertex's entries.
func (s *scheduler) sweepVertexRegistries(dagID, vertex string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pc := range s.held {
		pc.registry.SweepVertex(dagID, vertex)
	}
}

// snapshot returns current counters.
func (s *scheduler) snapshot() schedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// close releases everything; pending assigns never fire afterwards.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	idle := s.idle
	s.idle = nil
	// Detach queued requests so a straggling cancel's removal is a no-op
	// against the dropped buckets, and collect their outstanding RM
	// requests: dropping the buckets alone would leave those requests
	// pending at the RM forever (Application.PendingRequests never
	// returning to zero after a mid-run Close).
	var withdraw []*cluster.ContainerRequest
	for _, b := range s.pending {
		for _, r := range b.reqs[b.head:] {
			if r != nil {
				r.bucket = nil
				if r.rmReq != nil && !r.cancelled {
					withdraw = append(withdraw, r.rmReq)
				}
			}
		}
	}
	s.pending = make(map[int]*amBucket)
	s.prios = nil
	s.livePending = 0
	s.mu.Unlock()
	for _, req := range withdraw {
		s.app.Cancel(req)
	}
	for _, pc := range idle {
		s.app.Release(pc.c)
	}
}

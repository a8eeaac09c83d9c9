package am

import (
	"sync/atomic"
	"time"

	"tez/internal/cluster"
	"tez/internal/mailbox"
	"tez/internal/runtime"
	"tez/internal/timeline"
)

// taskRequest asks the scheduler for a container to run one task attempt.
type taskRequest struct {
	priority int // lower is more urgent (vertex topological depth)
	hosts    []cluster.NodeID
	racks    []string
	// assign is invoked by deliver, after the handler that found the
	// container returns, never nested inside it. The callee owns the
	// container until it calls release.
	assign func(*pooledContainer)
	// tag identifies the requesting DAG run (deadlock detection scope).
	tag any
	// dag is the requesting run's id, for timeline attribution ("" for
	// prewarm requests, which are session-scoped).
	dag string

	created   time.Time
	cancelled bool
	rmReq     *cluster.ContainerRequest

	// Pending-queue position: the bucket the request sits in and its
	// absolute slot index within it. bucket is nil whenever the request
	// is not queued, which makes removal idempotent.
	bucket *amBucket
	slot   int
}

// amBucket is one priority's pending FIFO. Entries are addressed by a
// stable absolute index (base + position), so a request records where it
// sits and removal is an O(1) nil-tombstone, never a scan: removal runs
// once per allocation, so a scan would make a 100k-task DAG quadratic.
// The head cursor pops over tombstones; compaction slides the live tail
// down (adjusting base so recorded slots stay valid) once the dead prefix
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

// live reports whether the cluster has not stopped pc's container. A
// container stopped under a task (node loss, preemption) is never reused,
// whether or not the session has drained the stop notice yet: reusing it
// fails the next attempt at once, and when that attempt's node is already
// known dead the failure is a casualty that costs no attempt budget — so
// the task would be handed the same dead container again, for as long as
// the notice took to arrive.
func (pc *pooledContainer) live() bool {
	select {
	case <-pc.c.Killed():
		return false
	default:
		return true
	}
}

// containerResource is the size of every container the scheduler asks
// the RM for: one task's worth.
var containerResource = cluster.Resource{MemoryMB: 1024, VCores: 1}

// grant is an assignment a handler found: deliver hands pc to req.
type grant struct {
	req *taskRequest
	pc  *pooledContainer
}

// scheduler owns the session's container pool: it satisfies task requests
// from idle (reused) containers first, escalates the rest to the RM with
// the request's locality preferences, hands containers finishing a task to
// waiting requests (within and across DAGs — Figure 7), and releases
// containers idle for longer than the configured timeout. Only the
// session's loop calls it, so it holds no lock; the two counters are
// atomic because SchedulerStats reads them from other goroutines.
type scheduler struct {
	cfg Config
	app *cluster.Application
	// health is the session's node blacklist. Blacklisted nodes are
	// excluded from RM requests and from idle-container reuse.
	health *nodeHealth
	now    timeline.Clock    // injectable (Config.Clock)
	tl     *timeline.Journal // nil-safe event sink
	// mb is the session's AM mailbox: a container launch, which runs off
	// the loop, reports there as msgLaunched.
	mb *mailbox.Mailbox[amMsg]

	idle []*pooledContainer
	// pending holds waiting requests in per-priority FIFO buckets; prios
	// keeps the bucket keys sorted ascending so takePending pops the
	// most urgent request without sorting anything.
	// livePending counts non-cancelled queued requests across all buckets.
	pending     map[int]*amBucket
	prios       []int
	livePending int
	held        map[cluster.ContainerID]*pooledContainer
	// ready queues the assignments the current handler found; deliver
	// hands them over once it returns.
	ready      []grant
	allocated  atomic.Int64 // fresh containers launched
	reused     atomic.Int64 // assignments satisfied by an already-held container
	lastAssign time.Time

	// testHookPreLaunch, when set, runs in the launch goroutine just
	// before Container.Launch — a seam for launch-failure tests.
	testHookPreLaunch func(*cluster.Container)
}

func newScheduler(cfg Config, app *cluster.Application, health *nodeHealth, mb *mailbox.Mailbox[amMsg]) *scheduler {
	return &scheduler{
		cfg: cfg, app: app, health: health, now: cfg.Clock, tl: cfg.Timeline, mb: mb,
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
// onLaunched to re-submit a request whose container failed to launch.
func (s *scheduler) enqueue(req *taskRequest) {
	if req.cancelled {
		return
	}
	if pc := s.takeIdle(req); pc != nil {
		s.reuse(req, pc)
		return
	}
	s.pushPending(req)
	req.rmReq = &cluster.ContainerRequest{
		Priority:      req.priority,
		Resource:      containerResource,
		Nodes:         req.hosts,
		Racks:         req.racks,
		RelaxLocality: true,
		Exclude:       s.health.excludedIDs(),
		Cookie:        req,
	}
	s.app.Request(req.rmReq)
}

// cancel withdraws a request (e.g. the task was satisfied by a speculative
// twin). Safe if the request was already assigned or never submitted.
func (s *scheduler) cancel(req *taskRequest) {
	req.cancelled = true
	if req.rmReq != nil {
		s.app.Cancel(req.rmReq)
	}
	s.removePending(req)
}

// reuse queues an already-held container for req.
func (s *scheduler) reuse(req *taskRequest, pc *pooledContainer) {
	s.reused.Add(1)
	s.lastAssign = s.now()
	s.tl.Record(timeline.Event{
		Type: timeline.ContainerReused, DAG: req.dag,
		Node: string(pc.c.Node()), Container: int64(pc.c.ID),
		Val: int64(pc.execs),
	})
	pc.execs++
	s.ready = append(s.ready, grant{req, pc})
}

// deliver hands every queued assignment to its request. An assignment may
// release a container and so queue another; the loop picks those up too.
func (s *scheduler) deliver() {
	for i := 0; i < len(s.ready); i++ {
		g := s.ready[i]
		s.ready[i] = grant{}
		g.req.assign(g.pc)
	}
	s.ready = s.ready[:0]
}

// takeIdle matches an idle container: same host, then same rack, then
// any (container reuse relaxes locality rather than waiting).
func (s *scheduler) takeIdle(req *taskRequest) *pooledContainer {
	if s.cfg.DisableContainerReuse || len(s.idle) == 0 {
		return nil
	}
	pick := -1
	bestClass := 3
	for i, pc := range s.idle {
		if !pc.live() || s.health.isBlacklisted(string(pc.c.Node())) {
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

// onAllocated handles a fresh container from the RM: it is held from now
// on, and launched in a goroutine of its own, so the launch overhead
// stalls no DAG in the session. The launch reports back as msgLaunched.
func (s *scheduler) onAllocated(c *cluster.Container, rmReq *cluster.ContainerRequest) {
	req, _ := rmReq.Cookie.(*taskRequest)
	pc := &pooledContainer{c: c, registry: runtime.NewObjectRegistry()}
	s.held[c.ID] = pc
	s.allocated.Add(1)
	if req != nil {
		s.removePending(req)
	}
	s.lastAssign = s.now()
	hook := s.testHookPreLaunch
	go func() {
		if hook != nil {
			hook(c)
		}
		s.mb.Put(msgLaunched{pc: pc, req: req, err: c.Launch()})
	}()
}

// onLaunched takes a launched container: it goes to its request, or idle
// when the request was withdrawn meanwhile. A container that died between
// allocation and launch (node loss, preemption) is discarded and its
// request re-submitted: it left pending at allocation, so dropping it
// would strand the task attempt.
func (s *scheduler) onLaunched(pc *pooledContainer, req *taskRequest, err error) {
	if req != nil && req.cancelled {
		req = nil
	}
	if err != nil {
		s.discard(pc)
		if req != nil {
			s.enqueue(req)
		}
		return
	}
	if req == nil {
		s.release(pc, true)
		return
	}
	pc.execs++
	s.ready = append(s.ready, grant{req, pc})
}

// release returns a container after a task: hand it to a waiting request
// (reuse), park it idle, or give it back to the RM.
func (s *scheduler) release(pc *pooledContainer, reusable bool) {
	if reusable && (!pc.live() || s.health.isBlacklisted(string(pc.c.Node()))) {
		reusable = false
	}
	if !reusable || s.cfg.DisableContainerReuse {
		delete(s.held, pc.c.ID)
		s.app.Release(pc.c)
		return
	}
	if req := s.takePending(); req != nil {
		if req.rmReq != nil {
			s.app.Cancel(req.rmReq)
		}
		s.reuse(req, pc)
		return
	}
	pc.idleSince = s.now()
	s.idle = append(s.idle, pc)
}

// discard drops a container that can no longer run work (killed node etc.).
func (s *scheduler) discard(pc *pooledContainer) {
	s.onContainerStopped(pc.c.ID)
	s.app.Release(pc.c)
}

// onContainerStopped reacts to involuntary container loss: the container
// leaves the held set and the idle pool.
func (s *scheduler) onContainerStopped(id cluster.ContainerID) {
	pc := s.held[id]
	delete(s.held, id)
	if pc == nil {
		return
	}
	for i, ic := range s.idle {
		if ic == pc {
			s.idle = append(s.idle[:i], s.idle[i+1:]...)
			return
		}
	}
}

// pushPending appends a request to its priority's FIFO, recording
// its stable slot for O(1) removal.
func (s *scheduler) pushPending(req *taskRequest) {
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

// takePending pops the most urgent live pending request: the first
// non-tombstone entry of the lowest-priority non-empty bucket. Requests of
// one priority leave in arrival order.
func (s *scheduler) takePending() *taskRequest {
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

// removePending tombstones a queued request in place. A request not
// currently queued (bucket == nil, or already popped) is a no-op.
func (s *scheduler) removePending(req *taskRequest) {
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
// periodically by the session. Sessions keep idle capacity only this long,
// releasing resources to the cluster (§4.3 multi-tenancy) — down to a
// floor of PrewarmContainers: like Tez's
// tez.am.session.min.held-containers, no idle container is released if
// that would leave the session holding fewer than it pre-warmed.
func (s *scheduler) reapIdle() {
	now := s.now()
	kept := s.idle[:0]
	for _, pc := range s.idle {
		if now.Sub(pc.idleSince) > s.cfg.ContainerIdleRelease && len(s.held) > s.cfg.PrewarmContainers {
			delete(s.held, pc.c.ID)
			s.app.Release(pc.c)
		} else {
			kept = append(kept, pc)
		}
	}
	clear(s.idle[len(kept):])
	s.idle = kept
}

// prewarm launches n containers ahead of the first DAG (§4.2, Session).
func (s *scheduler) prewarm(n int) {
	for i := 0; i < n; i++ {
		req := &taskRequest{priority: 1 << 20}
		req.assign = func(pc *pooledContainer) {
			pc.execs = 0 // prewarm isn't a task execution: a later hit is a warm hit
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
	for _, pc := range s.held {
		pc.registry.SweepDAG(dagID)
	}
}

// sweepVertexRegistries evicts a finished vertex's entries.
func (s *scheduler) sweepVertexRegistries(dagID, vertex string) {
	for _, pc := range s.held {
		pc.registry.SweepVertex(dagID, vertex)
	}
}

package am

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tez/internal/cluster"
	"tez/internal/dag"
	"tez/internal/event"
	"tez/internal/fsm"
	"tez/internal/mailbox"
	"tez/internal/metrics"
	"tez/internal/plugin"
	"tez/internal/runtime"
	"tez/internal/security"
	"tez/internal/timeline"
)

// DAGStatus is the terminal state of a DAG run.
type DAGStatus int

// DAG terminal states.
const (
	DAGRunning DAGStatus = iota
	DAGSucceeded
	DAGFailed
	DAGKilled
)

func (s DAGStatus) String() string {
	switch s {
	case DAGRunning:
		return "RUNNING"
	case DAGSucceeded:
		return "SUCCEEDED"
	case DAGFailed:
		return "FAILED"
	default:
		return "KILLED"
	}
}

// DAGResult is what a DAG run returns.
type DAGResult struct {
	Status   DAGStatus
	Err      error
	Duration time.Duration
	Counters *metrics.Counters
}

// Vertex / task / attempt entities. Their lifecycle state lives in fsm
// machines (lc) driven through the transition tables of lifecycle.go —
// never in raw fields — so every state change flows through one declared
// table with a single journaling observer.

type vertexState struct {
	v           *dag.Vertex
	lc          *fsm.Machine[*vertexState, vState, vEvent]
	parallelism int
	priority    int // topological depth; lower runs first
	tasks       []*taskState
	completed   int
	durations   []time.Duration // completed task runtimes (speculation)

	manager        VertexManager
	managerStarted bool
	pendingVM      []event.VertexManagerEvent // events before manager start

	initsOutstanding int
	initEvents       map[string]*mailbox.Mailbox[event.InputInitializerEvent]
	rootPayloads     map[string][][]byte
	locationHints    [][]string

	parWaiters []chan int // initializer queries blocked on our parallelism
	// committed: commit launched; commitComplete: commit finished.
	committed      bool
	commitComplete bool
}

// newVertexState builds a vertex entity with its lifecycle machine wired
// to the run's journaling observer.
func newVertexState(r *dagRun, v *dag.Vertex, depth int) *vertexState {
	vs := &vertexState{
		v:            v,
		parallelism:  v.Parallelism,
		priority:     depth,
		initEvents:   make(map[string]*mailbox.Mailbox[event.InputInitializerEvent]),
		rootPayloads: make(map[string][][]byte),
	}
	if len(v.LocationHints) > 0 {
		vs.locationHints = v.LocationHints
	}
	vs.lc = newVertexMachine(r, vs)
	return vs
}

type taskState struct {
	vertex   *vertexState
	idx      int
	lc       *fsm.Machine[*taskState, tState, tEvent]
	attempts []*attemptState
	winner   *taskSuccess // nil unless the task is succeeded
	failures int
}

// taskSuccess is a task's one success record: the winning attempt and the
// node holding its output. attemptSucceeded and applyCheckpoint set it,
// reexecuteTask clears it, and a checkpoint stores it as is.
type taskSuccess struct {
	Attempt int
	Node    string
}

// newTaskState builds a task entity with its lifecycle machine.
func newTaskState(r *dagRun, vs *vertexState, idx int) *taskState {
	ts := &taskState{vertex: vs, idx: idx}
	ts.lc = newTaskMachine(r, ts)
	return ts
}

// runningAttempts counts attempts not yet terminal.
func (t *taskState) runningAttempts() int {
	n := 0
	for _, a := range t.attempts {
		if !a.lc.Terminal() {
			n++
		}
	}
	return n
}

type attemptState struct {
	task        *taskState
	id          int
	lc          *fsm.Machine[*attemptState, aState, aEvent]
	speculative bool
	req         *taskRequest
	pc          *pooledContainer
	node        string
	locality    cluster.Locality
	mbox        *mailbox.Mailbox[event.Event]
	start       time.Time
	// allocWait is the request→launch span closed at assignment: how long
	// the attempt waited for its container (AttemptStarted's Val).
	allocWait time.Duration
	// events holds the DataMovement, VertexManager and InputInitializer
	// events the attempt sent, in emission order. attemptSucceeded
	// publishes them; an attempt that ends any other way is never read
	// again, so its events die with it unseen.
	events []event.Event
}

// newAttemptState builds an attempt entity with its lifecycle machine.
// The caller appends it to ts.attempts; the id is its slot.
func newAttemptState(r *dagRun, ts *taskState, speculative bool) *attemptState {
	at := &attemptState{task: ts, id: len(ts.attempts), speculative: speculative}
	at.lc = newAttemptMachine(r, at)
	return at
}

type edgeState struct {
	e         *dag.Edge
	from, to  *vertexState
	mgr       dag.EdgeManager
	baseParts int
	// published[t] is source task t's winner's DataMovements in emission
	// order, kept so late-starting consumers and checkpoints see the full
	// history. Only a succeeded attempt's movements ever land here.
	published [][]event.DataMovement
}

// publish appends a winner's movement to its source task's stream.
func (es *edgeState) publish(dm event.DataMovement) {
	if n := dm.SrcTask + 1; n > len(es.published) {
		es.published = append(es.published, make([][]event.DataMovement, n-len(es.published))...)
	}
	es.published[dm.SrcTask] = append(es.published[dm.SrcTask], dm)
}

// Internal dispatcher messages. The three hot-path messages — assignment,
// task event, attempt completion, of which a 100k-task DAG sends hundreds
// of thousands — are pooled pointer messages: dispatch copies the fields
// out, zeroes the struct and recycles it before invoking the handler, so
// steady-state dispatch allocates nothing per message.

type amMsg interface{}

type msgAssigned struct {
	at *attemptState
	pc *pooledContainer
}

type msgAttemptDone struct {
	at  *attemptState
	err error
}

type msgTaskEvent struct {
	at *attemptState
	ev event.Event
}

var (
	assignedPool    = sync.Pool{New: func() any { return new(msgAssigned) }}
	attemptDonePool = sync.Pool{New: func() any { return new(msgAttemptDone) }}
	taskEventPool   = sync.Pool{New: func() any { return new(msgTaskEvent) }}
)

// postAssigned / postAttemptDone / postTaskEvent enqueue a pooled message.
// Messages still queued when the run tears down are simply dropped to the
// GC — the pool is an optimisation, not an ownership protocol.
func (r *dagRun) postAssigned(at *attemptState, pc *pooledContainer) {
	m := assignedPool.Get().(*msgAssigned)
	m.at, m.pc = at, pc
	r.mb.Put(m)
}

func (r *dagRun) postAttemptDone(at *attemptState, err error) {
	m := attemptDonePool.Get().(*msgAttemptDone)
	m.at, m.err = at, err
	r.mb.Put(m)
}

func (r *dagRun) postTaskEvent(at *attemptState, ev event.Event) {
	m := taskEventPool.Get().(*msgTaskEvent)
	m.at, m.ev = at, ev
	r.mb.Put(m)
}

type msgInitDone struct {
	vs     *vertexState
	source string
	res    *runtime.InitializerResult
	err    error
}

type msgCommitDone struct {
	vs  *vertexState
	err error
}

type msgNodeFailed struct {
	node    cluster.NodeID
	planned bool // decommission (drain), not a crash
}

// msgKill aborts the run (Kill, Session.Close).
type msgKill struct {
	reason string
}

// ErrDeadlineExceeded marks a DAG killed because its per-submission
// deadline (Submit's WithDeadline option) elapsed before completion.
var ErrDeadlineExceeded = errors.New("am: dag deadline exceeded")

// dagRun executes one DAG. A single dispatcher goroutine consumes the
// mailbox and owns all mutable state — the state machines never need
// locks, mirroring the event-driven AM of §3.3.
type dagRun struct {
	session *Session
	cfg     Config
	d       *dag.DAG
	id      string // unique run id (shuffle namespace, checkpoint key)

	mb       *mailbox.Mailbox[amMsg]
	vertices map[string]*vertexState
	topo     []string
	edges    []*edgeState
	inEdges  map[string][]*edgeState
	outEdges map[string][]*edgeState

	counters *metrics.Counters
	token    security.Token

	// deadNodes records nodes this run has seen fail or drain. A genuine
	// attempt error arriving from a node already in here is downgraded to
	// a casualty: the failure raced the node loss in the mailbox and must
	// not count toward MaxTaskAttempts or node health.
	deadNodes map[string]bool

	// lc is the run-level machine: DAGRunning until dEvSucceed / dEvFail /
	// dEvKill moves it to its terminal status. The run is finished exactly
	// when lc.Terminal().
	lc             *fsm.Machine[*dagRun, DAGStatus, dEvent]
	started        time.Time
	result         DAGResult
	done           chan struct{}
	pendingCommits int
	// backlogMax is the dispatcher-mailbox depth high-water mark, sampled
	// at every drain (AM_MAILBOX_BACKLOG_MAX gauge + AM_BACKLOG journal
	// events).
	backlogMax int64

	// deadline, when positive, bounds the run's wall-clock duration: the
	// dispatcher kills the run when its timer fires first (Submit's
	// WithDeadline option).
	deadline time.Duration

	// recovered checkpoint to apply at start (nil for fresh runs).
	recovered *checkpoint
}

// tl returns the session's timeline journal (nil-safe: recording on a nil
// journal is a no-op, so call sites never guard).
func (r *dagRun) tl() *timeline.Journal { return r.cfg.Timeline }

// clock reads the session clock (Config.Clock, defaulted to time.Now).
// Every AM timestamp — attempt spans, scheduler waits, speculation math,
// run duration — is measured against it so fake-clock tests see coherent
// durations.
func (r *dagRun) clock() time.Time { return r.cfg.Clock() }

// isFinished reports whether the run reached a terminal status.
func (r *dagRun) isFinished() bool { return r.lc.Terminal() }

func newDAGRun(s *Session, d *dag.DAG, id string) (*dagRun, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	topo, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	r := &dagRun{
		session:   s,
		cfg:       s.cfg,
		d:         d,
		id:        id,
		mb:        mailbox.New[amMsg](),
		vertices:  make(map[string]*vertexState),
		inEdges:   make(map[string][]*edgeState),
		outEdges:  make(map[string][]*edgeState),
		counters:  metrics.NewCounters(),
		deadNodes: make(map[string]bool),
		done:      make(chan struct{}),
	}
	r.lc = newDAGMachine(r)
	for depth, name := range topo {
		r.vertices[name] = newVertexState(r, d.Vertex(name), depth)
	}
	r.topo = topo
	for _, e := range d.Edges {
		es := &edgeState{e: e, from: r.vertices[e.From], to: r.vertices[e.To]}
		r.edges = append(r.edges, es)
		r.inEdges[e.To] = append(r.inEdges[e.To], es)
		r.outEdges[e.From] = append(r.outEdges[e.From], es)
	}
	return r, nil
}

// start launches the dispatcher. The tick and, with WithDeadline, the
// deadline timer start here and live in the dispatcher's select.
func (r *dagRun) start() {
	r.started = r.clock()
	if a := r.session.plat.Authority; a != nil {
		r.token = a.Issue(r.id)
	}
	tick := time.NewTicker(min(r.cfg.SpeculationInterval, deadlockCheckInterval))
	var deadline *time.Timer
	if r.deadline > 0 {
		deadline = time.NewTimer(r.deadline)
	}
	go r.loop(tick, deadline)
}

func (r *dagRun) loop(tick *time.Ticker, deadline *time.Timer) {
	defer tick.Stop()
	var expired <-chan time.Time // nil without a deadline: never fires
	if deadline != nil {
		defer deadline.Stop()
		expired = deadline.C
	}
	r.bootstrap()
	// Drain the mailbox in batches: one lock round-trip per backlog, not
	// per message. Messages left in the batch after a terminal transition
	// are never dispatched.
	var batch []amMsg
	for !r.isFinished() {
		select {
		case <-r.mb.Ready():
			batch, _ = r.mb.Drain(batch) // never closed: ok is always true
			r.observeBacklog(len(batch))
			for i, m := range batch {
				batch[i] = nil
				r.dispatch(m)
				if r.isFinished() {
					break
				}
			}
		case <-tick.C:
			r.onTick()
		case <-expired:
			r.fail(DAGKilled, fmt.Errorf("am: dag %s killed: deadline %v exceeded: %w", r.id, r.deadline, ErrDeadlineExceeded))
		}
	}
	// Terminal: release everything still held.
	r.teardown()
	// DAGFinished is the one lifecycle event not emitted by a transition
	// observer: it is a span closer needing the post-teardown duration.
	r.result.Duration = r.clock().Sub(r.started)
	r.result.Counters = r.counters
	r.tl().Record(timeline.Event{
		Type: timeline.DAGFinished, DAG: r.id,
		Info: r.result.Status.String(), Dur: r.result.Duration,
	})
	r.session.runFinished(r)
	close(r.done)
}

func (r *dagRun) dispatch(m amMsg) {
	switch msg := m.(type) {
	case *msgAssigned:
		at, pc := msg.at, msg.pc
		*msg = msgAssigned{}
		assignedPool.Put(msg)
		r.onAssigned(at, pc)
	case *msgAttemptDone:
		at, err := msg.at, msg.err
		*msg = msgAttemptDone{}
		attemptDonePool.Put(msg)
		r.onAttemptDone(at, err)
	case *msgTaskEvent:
		at, ev := msg.at, msg.ev
		*msg = msgTaskEvent{}
		taskEventPool.Put(msg)
		r.onTaskEvent(at, ev)
	case msgInitDone:
		r.onInitDone(msg.vs, msg.source, msg.res, msg.err)
	case msgCommitDone:
		r.onCommitDone(msg.vs, msg.err)
	case msgNodeFailed:
		r.onNodeFailed(msg.node, msg.planned)
	case msgKill:
		r.fail(DAGKilled, fmt.Errorf("am: dag %s killed: %s", r.id, msg.reason))
	case msgParQuery:
		r.onParQuery(msg)
	}
}

// bootstrap applies any recovered checkpoint, then initializes vertices:
// runs data-source initializers, resolves static parallelism, and starts
// whatever is ready.
func (r *dagRun) bootstrap() {
	if r.recovered != nil {
		r.applyCheckpoint(r.recovered)
	} else {
		r.tl().Record(timeline.Event{Type: timeline.DAGSubmitted, DAG: r.id, Info: r.d.Name})
		for _, es := range r.edges {
			r.tl().Record(timeline.Event{
				Type: timeline.EdgeDeclared, DAG: r.id,
				Vertex: es.e.From, Info: es.e.To,
			})
		}
	}
	for _, name := range r.topo {
		vs := r.vertices[name]
		if !vs.lc.In(vNew) {
			continue
		}
		if n := len(initializers(vs.v)); n > 0 && !r.vertexRestored(vs) {
			vs.lc.Fire(vEvInitStart)
			vs.initsOutstanding = n
			r.runInitializers(vs)
			continue
		}
		r.tryInitVertex(vs)
	}
	r.advance()
}

// vertexRestored reports whether a checkpoint fully restored this vertex.
func (r *dagRun) vertexRestored(vs *vertexState) bool {
	return vs.lc.In(vSucceeded)
}

func initializers(v *dag.Vertex) []dag.DataSource {
	var out []dag.DataSource
	for _, s := range v.Sources {
		if !s.Initializer.IsZero() {
			out = append(out, s)
		}
	}
	return out
}

// runInitializers spawns one goroutine per initializer (§3.5) — they may
// block waiting for InputInitializerEvents from other vertices (dynamic
// partition pruning) while the rest of the DAG proceeds.
func (r *dagRun) runInitializers(vs *vertexState) {
	for _, src := range initializers(vs.v) {
		src := src
		mbx := mailbox.New[event.InputInitializerEvent]()
		vs.initEvents[src.Name] = mbx
		ictx := &runtime.InitializerContext{
			DAG:          r.id,
			Vertex:       vs.v.Name,
			Source:       src.Name,
			Payload:      src.Initializer.Payload,
			FS:           r.session.plat.FS,
			ClusterNodes: nodeNames(r.session.plat.RM.Nodes()),
			Events:       mbx,
			Stop:         r.done,
			VertexParallelism: func(name string) int {
				return r.queryParallelism(name)
			},
		}
		go func() {
			init, err := plugin.New[runtime.Initializer](plugin.KindInitializer, src.Initializer)
			if err != nil {
				r.mb.Put(msgInitDone{vs: vs, source: src.Name, err: err})
				return
			}
			res, err := init.Run(ictx)
			r.mb.Put(msgInitDone{vs: vs, source: src.Name, res: res, err: err})
		}()
	}
}

func nodeNames(ids []cluster.NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}

// queryParallelism blocks until the named vertex's parallelism is decided
// (used by initializers awaiting a source vertex's fan-out).
func (r *dagRun) queryParallelism(name string) int {
	reply := make(chan int, 1)
	r.mb.Put(msgParQuery{name: name, reply: reply})
	select {
	case p := <-reply:
		return p
	case <-r.done:
		return -1
	}
}

type msgParQuery struct {
	name  string
	reply chan int
}

// onInitDone integrates an initializer's result.
func (r *dagRun) onInitDone(vs *vertexState, source string, res *runtime.InitializerResult, err error) {
	if r.isFinished() || !vs.lc.In(vIniting) {
		return
	}
	if err != nil {
		r.fail(DAGFailed, fmt.Errorf("am: initializer %s/%s: %w", vs.v.Name, source, err))
		return
	}
	if res != nil {
		if res.Parallelism > 0 {
			if vs.parallelism > 0 && vs.parallelism != res.Parallelism && len(vs.rootPayloads) > 0 {
				r.fail(DAGFailed, fmt.Errorf("am: initializers of %s disagree on parallelism (%d vs %d)",
					vs.v.Name, vs.parallelism, res.Parallelism))
				return
			}
			vs.parallelism = res.Parallelism
		}
		vs.rootPayloads[source] = res.PerTaskPayload
		if len(res.LocationHints) > 0 {
			vs.locationHints = res.LocationHints
		}
	}
	vs.initsOutstanding--
	if vs.initsOutstanding == 0 {
		r.tryInitVertex(vs)
		r.advance()
	}
}

// tryInitVertex moves a vertex to vInited once its parallelism is known,
// creating its task states.
func (r *dagRun) tryInitVertex(vs *vertexState) {
	if !vs.lc.In(vNew, vIniting) {
		return
	}
	if vs.parallelism < 0 {
		// A 1-1 edge propagates parallelism from an inited source.
		for _, es := range r.inEdges[vs.v.Name] {
			if es.e.Property.Movement == dag.OneToOne && es.from.parallelism > 0 &&
				es.from.lc.In(vInited, vRunning, vSucceeded) {
				vs.parallelism = es.from.parallelism
				break
			}
		}
	}
	if vs.parallelism < 0 {
		return // not decidable yet
	}
	// Tasks exist before the transition: the VertexInited observer reads
	// the decided parallelism.
	vs.tasks = make([]*taskState, vs.parallelism)
	for i := range vs.tasks {
		vs.tasks[i] = newTaskState(r, vs, i)
	}
	vs.lc.Fire(vEvInited)
	// Answer any blocked initializer queries for this vertex.
	for _, w := range vs.parWaiters {
		w <- vs.parallelism
	}
	vs.parWaiters = nil
}

// advance drives global progress: propagate parallelism, build edge
// managers, and start vertices whose in/out geometry is complete.
func (r *dagRun) advance() {
	if r.isFinished() {
		return
	}
	// Repeated passes: 1-1 propagation can cascade.
	for changed := true; changed; {
		changed = false
		for _, name := range r.topo {
			vs := r.vertices[name]
			if vs.lc.In(vNew) || (vs.lc.In(vIniting) && vs.initsOutstanding == 0) {
				before := vs.lc.State()
				r.tryInitVertex(vs)
				if vs.lc.State() != before {
					changed = true
				}
			}
		}
	}
	// Build edge managers where both endpoints are inited.
	for _, es := range r.edges {
		if es.mgr != nil {
			continue
		}
		if vertexReady(es.from) && vertexReady(es.to) {
			if err := r.buildEdgeManager(es, es.to.parallelism); err != nil {
				r.fail(DAGFailed, err)
				return
			}
		}
	}
	// Start vertices: inited, with every edge manager in place.
	for _, name := range r.topo {
		vs := r.vertices[name]
		if !vs.lc.In(vInited) {
			continue
		}
		if !r.edgesReady(vs) {
			continue
		}
		r.startVertex(vs)
		if r.isFinished() {
			return
		}
	}
	r.maybeFinish()
}

func vertexReady(vs *vertexState) bool {
	return vs.lc.In(vInited, vRunning, vSucceeded) && vs.parallelism > 0
}

// edgesReady gates vertex start. Every in-edge needs its routing table;
// out-edges only gate when the producer's physical output count depends on
// the destination's parallelism (scatter-gather, custom). Broadcast and
// one-to-one producers emit a single physical output, so they may start —
// and finish — before the consumer is even configured (e.g. a dimension
// scan broadcasting into a fact vertex whose pruning initializer is still
// waiting for that very scan's events, §3.5).
func (r *dagRun) edgesReady(vs *vertexState) bool {
	for _, es := range r.inEdges[vs.v.Name] {
		if es.mgr == nil {
			return false
		}
	}
	for _, es := range r.outEdges[vs.v.Name] {
		if es.mgr == nil && !singleOutputMovement(es.e.Property.Movement) {
			return false
		}
	}
	return true
}

func singleOutputMovement(m dag.MovementType) bool {
	return m == dag.Broadcast || m == dag.OneToOne
}

// buildEdgeManager (re)builds the routing table of an edge; destPar may be
// smaller than baseParts after auto-reduce.
func (r *dagRun) buildEdgeManager(es *edgeState, destPar int) error {
	if es.baseParts == 0 {
		es.baseParts = destPar
	}
	mgr, err := dag.NewEdgeManager(es.e.Property, dag.EdgeContext{
		SrcParallelism:  es.from.parallelism,
		DestParallelism: destPar,
		BasePartitions:  es.baseParts,
	})
	if err != nil {
		return fmt.Errorf("am: edge %s->%s: %w", es.e.From, es.e.To, err)
	}
	es.mgr = mgr
	return nil
}

// startVertex transitions to vRunning and hands control to the vertex
// manager.
func (r *dagRun) startVertex(vs *vertexState) {
	vs.lc.Fire(vEvStart)
	if vs.completed == vs.parallelism {
		// Fully restored from checkpoint.
		r.vertexSucceeded(vs)
		return
	}
	mgr, err := newVertexManager(vs.v.Manager)
	if err != nil {
		r.fail(DAGFailed, err)
		return
	}
	vs.manager = mgr
	ctx := &vmContext{run: r, vs: vs}
	if err := mgr.Initialize(ctx); err != nil {
		r.fail(DAGFailed, fmt.Errorf("am: vertex manager of %s: %w", vs.v.Name, err))
		return
	}
	vs.managerStarted = true
	mgr.OnVertexStarted()
	// Flush buffered stats events and completion notifications that
	// happened before the manager existed.
	for _, ev := range vs.pendingVM {
		mgr.OnVertexManagerEvent(ev)
	}
	vs.pendingVM = nil
}

// fail terminates the DAG with the given terminal status.
func (r *dagRun) fail(status DAGStatus, err error) {
	if r.isFinished() {
		return
	}
	ev := dEvFail
	if status == DAGKilled {
		ev = dEvKill
	}
	r.lc.Fire(ev)
	r.result = DAGResult{Status: r.lc.State(), Err: err}
}

// maybeFinish completes the DAG when every vertex succeeded and all sink
// commits are done.
func (r *dagRun) maybeFinish() {
	if r.isFinished() || r.pendingCommits > 0 {
		return
	}
	for _, vs := range r.vertices {
		if !vs.lc.In(vSucceeded) {
			return
		}
	}
	r.lc.Fire(dEvSucceed)
	r.result = DAGResult{Status: DAGSucceeded}
	// Intermediate data is no longer needed.
	r.session.plat.Shuffle.DeleteDAG(r.id)
	if r.cfg.CheckpointPath != "" {
		r.session.plat.FS.Delete(checkpointPath(r.cfg, r.d.Name))
	}
}

// teardown cancels outstanding requests and frees containers of running
// attempts after a terminal transition.
func (r *dagRun) teardown() {
	for _, vs := range r.vertices {
		for _, ts := range vs.tasks {
			for _, at := range ts.attempts {
				switch {
				case at.lc.In(aWaiting):
					at.lc.Fire(aEvKill)
					if at.req != nil {
						r.session.sched.cancel(at.req)
					}
				case at.lc.In(aRunning):
					// The observer closes the span: a teardown-killed
					// running attempt journals ATTEMPT_FINISHED/KILLED.
					at.lc.Fire(aEvKill)
					if at.pc != nil {
						r.session.sched.discard(at.pc)
					}
				}
				if at.mbox != nil {
					at.mbox.Close()
				}
			}
		}
		for _, mbx := range vs.initEvents {
			mbx.Close()
		}
		for _, w := range vs.parWaiters {
			close(w)
		}
		vs.parWaiters = nil
	}
	// Sweep per-container object registries of this DAG and revoke its
	// data-plane credential: zombie attempts can no longer publish or read
	// intermediate data (§4.3).
	r.session.sched.sweepRegistries(r.id)
	if a := r.session.plat.Authority; a != nil {
		a.Revoke(r.id)
	}
}

func (r *dagRun) onParQuery(q msgParQuery) {
	vs, ok := r.vertices[q.name]
	if !ok {
		q.reply <- -1
		return
	}
	if vs.parallelism > 0 && !vs.lc.In(vNew, vIniting) {
		q.reply <- vs.parallelism
		return
	}
	vs.parWaiters = append(vs.parWaiters, q.reply)
}

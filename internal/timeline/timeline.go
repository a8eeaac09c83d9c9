// Package timeline is the in-process analog of the YARN Application
// Timeline Server the paper leans on for history, monitoring and
// debugging (§4.3, §5): an append-only, concurrency-safe journal of
// structured lifecycle events recorded by the AM, the cluster substrate
// and the shuffle service. Events carry monotonic per-run sequence
// numbers — the canonical ordering for determinism checks, independent of
// goroutine interleaving — and timestamps from an injectable clock, so
// fixed-seed chaos runs replay identically under test.
//
// Like the chaos plane, the journal is threaded through the layers as a
// nil-safe hook: every exported method is a no-op on a nil *Journal, and
// the production path simply attaches no journal.
package timeline

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Type names one event kind in the taxonomy. The string values are the
// wire format (JSONL, golden files) — stable by contract.
type Type string

// Event taxonomy: DAG/vertex/task/attempt lifecycle, scheduler and
// container pool activity, node health, shuffle data plane, chaos.
const (
	// DAG lifecycle.
	DAGSubmitted Type = "DAG_SUBMITTED" // Info: dag name
	DAGRecovered Type = "DAG_RECOVERED" // Info: dag name; Val: vertices restored
	DAGFinished  Type = "DAG_FINISHED"  // Info: status; Dur: wall-clock

	// DAG structure, declared once at bootstrap (critical-path input).
	EdgeDeclared Type = "EDGE" // Vertex: from; Info: to

	// Vertex lifecycle.
	VertexInited       Type = "VERTEX_INITED" // Val: parallelism
	VertexStarted      Type = "VERTEX_STARTED"
	VertexSucceeded    Type = "VERTEX_SUCCEEDED"
	VertexRecovered    Type = "VERTEX_RECOVERED"    // restored from checkpoint
	VertexReconfigured Type = "VERTEX_RECONFIGURED" // Val: new parallelism

	// Task / attempt lifecycle. AttemptStarted closes the scheduler's
	// request→allocate→launch span: Val is the wait in nanoseconds since
	// the request was submitted, Info the locality level achieved.
	// AttemptFinished is a complete span: Dur is the attempt's runtime,
	// Info its outcome (SUCCEEDED / FAILED / KILLED).
	TaskScheduled    Type = "TASK_SCHEDULED"
	AttemptRequested Type = "ATTEMPT_REQUESTED" // Info: "speculative" when it is
	AttemptStarted   Type = "ATTEMPT_STARTED"   // Node, Container, Info: locality, Val: wait ns
	AttemptFinished  Type = "ATTEMPT_FINISHED"  // Node, Container, Info: outcome, Dur: runtime

	// Scheduler container pool and cluster allocation.
	ContainerAllocated Type = "CONTAINER_ALLOCATED" // RM grant; Info: locality
	ContainerReused    Type = "CONTAINER_REUSED"    // idle hit; Val: prior exec count (0 = prewarm hit)
	ContainerPrewarmed Type = "CONTAINER_PREWARMED" // prewarm request satisfied
	ContainerStopped   Type = "CONTAINER_STOPPED"   // involuntary stop; Info: reason

	// Node health and node events.
	NodeBlacklisted    Type = "NODE_BLACKLISTED"   // Val: failures charged
	NodeUnblacklisted  Type = "NODE_UNBLACKLISTED" // decay expired
	NodeFailed         Type = "NODE_FAILED"
	NodeDecommissioned Type = "NODE_DECOMMISSIONED"

	// Shuffle data plane. ShuffleFetch is a span: Dur is the modelled
	// transfer time, Val the bytes moved, Node the serving node, Info the
	// reader and partition. InputReadError is the consumer-reported loss
	// that triggers producer re-execution.
	ShuffleFetch      Type = "SHUFFLE_FETCH"
	ShuffleFetchError Type = "SHUFFLE_FETCH_ERROR" // Info: error class
	InputReadError    Type = "INPUT_READ_ERROR"
	// ShuffleSpill is a map-side sort-spill span (Dur: sort+encode time,
	// Val: records spilled, Info: the edge). No span is journalled for a
	// merge: a producer ships its spills as sorted runs, and the one
	// merge is the consumer's, read lazily inside its processor.
	ShuffleSpill Type = "SHUFFLE_SPILL"

	// ChaosFault records one injected fault (Info: "kind site").
	ChaosFault Type = "CHAOS_FAULT"

	// TransitionInvalid records a control-plane event fired at a state
	// with no declared transition (internal/fsm): the machine's state was
	// NOT changed. Info carries the machine/state/event triple. A healthy
	// run journals none of these — each one is a control-plane bug.
	TransitionInvalid Type = "TRANSITION_INVALID"

	// GraphSuperstep is one BSP superstep of the graph engine
	// (internal/graph) — a span: Dur is the superstep DAG's wall-clock,
	// Val the active-vertex count, DAG the graph job name, Info
	// "superstep=<k> active=<n> sent=<m> combined=<c>" (messages combined
	// away between the senders and the inbox files).
	GraphSuperstep Type = "GRAPH_SUPERSTEP"

	// AMBacklog records a new high-water mark of the AM dispatcher's
	// mailbox backlog (Val: queued messages) once it crosses a reporting
	// threshold — a stuck or starved dispatcher becomes visible in the
	// timeline instead of only as a hang.
	AMBacklog Type = "AM_BACKLOG"
)

// Event is one journal entry. Seq is monotonic per run (the DAG field
// keys the stream; session/cluster-scoped events use the "" stream), and
// is the canonical ordering — timestamps are informative, ordering by
// them is not deterministic across runs. Task/Attempt are meaningful only
// for task- and attempt-typed events.
type Event struct {
	Seq       uint64        `json:"seq"`
	Wall      time.Time     `json:"wall"`
	Dur       time.Duration `json:"dur,omitempty"`
	Type      Type          `json:"type"`
	DAG       string        `json:"dag,omitempty"`
	Tenant    string        `json:"tenant,omitempty"`
	Vertex    string        `json:"vertex,omitempty"`
	Task      int           `json:"task"`
	Attempt   int           `json:"attempt"`
	Node      string        `json:"node,omitempty"`
	Container int64         `json:"container,omitempty"`
	Info      string        `json:"info,omitempty"`
	Val       int64         `json:"val,omitempty"`
}

// Start returns the span's start time (Wall - Dur); for instant events it
// equals Wall.
func (e Event) Start() time.Time { return e.Wall.Add(-e.Dur) }

// Clock supplies timestamps. Inject a fake for deterministic tests; nil
// means time.Now.
type Clock func() time.Time

// Journal is the append-only event log. All methods are safe for
// concurrent use and are no-ops on a nil receiver (the nil-safe hook
// contract the chaos plane established).
type Journal struct {
	mu      sync.Mutex
	now     Clock
	events  []Event
	nextSeq map[string]uint64 // per-run stream → next sequence number
	// streamTenant maps a run stream (DAG id) to its tenant; Record fills
	// Event.Tenant from it when the recording layer did not, so one
	// TagStream at submission tags the whole stream.
	streamTenant map[string]string
}

// Option configures a Journal at construction.
type Option func(*Journal)

// WithClock makes the journal stamp events from c instead of time.Now.
func WithClock(c Clock) Option {
	return func(j *Journal) {
		if c != nil {
			j.now = c
		}
	}
}

// New returns an empty journal.
func New(opts ...Option) *Journal {
	j := &Journal{
		now:          time.Now,
		nextSeq:      make(map[string]uint64),
		streamTenant: make(map[string]string),
	}
	for _, o := range opts {
		o(j)
	}
	return j
}

// Record appends e, assigning the next sequence number of its run stream
// and stamping Wall from the journal's clock unless the caller set it.
func (j *Journal) Record(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.nextSeq[e.DAG]++
	e.Seq = j.nextSeq[e.DAG]
	if e.Tenant == "" && e.DAG != "" {
		e.Tenant = j.streamTenant[e.DAG]
	}
	if e.Wall.IsZero() {
		e.Wall = j.now()
	}
	j.events = append(j.events, e)
}

// TagStream attributes a run stream (DAG id) to a tenant: subsequent
// Records into that stream inherit the tenant unless they set their own.
// Call it before the stream's first event (the AM does, at submission).
func (j *Journal) TagStream(dag, tenant string) {
	if j == nil || dag == "" || tenant == "" {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.streamTenant[dag] = tenant
}

// FilterTenant returns the events attributed to the given tenant, in the
// original order.
func FilterTenant(events []Event, tenant string) []Event {
	var out []Event
	for _, e := range events {
		if e.Tenant == tenant {
			out = append(out, e)
		}
	}
	return out
}

// Len returns the number of recorded events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}

// Events returns a copy of all events in append order.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events...)
}

// DAGEvents returns the given run's stream in sequence order.
func (j *Journal) DAGEvents(dag string) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for _, e := range j.events {
		if e.DAG == dag {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Import merges a checkpointed run stream into the journal (AM recovery):
// events already present — recognised by their sequence number being at
// or below the stream's high-water mark, since streams are contiguous —
// are skipped, and subsequent Records continue after the highest imported
// sequence. The result is one coherent history per run with no duplicate
// or gap sequence numbers across the crash. Returns the number of events
// actually imported.
func (j *Journal) Import(events []Event) int {
	if j == nil || len(events) == 0 {
		return 0
	}
	sorted := append([]Event(nil), events...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Seq < sorted[b].Seq })
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, e := range sorted {
		if e.Seq <= j.nextSeq[e.DAG] {
			continue // already recorded (same-journal recovery)
		}
		j.nextSeq[e.DAG] = e.Seq
		j.events = append(j.events, e)
		n++
	}
	return n
}

// WriteJSONL writes events one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a journal written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

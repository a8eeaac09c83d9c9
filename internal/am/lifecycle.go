package am

import (
	"fmt"
	"time"

	"tez/internal/fsm"
	"tez/internal/timeline"
)

// The AM's four control-plane lifecycles — DAG, vertex, task, attempt —
// as explicit transition tables (§3.3–§4.1; the Apache implementation
// declares these on Hadoop's StateMachineFactory). Every legal
// (state, event) pair is listed here; firing an undeclared pair never
// mutates state and journals a TRANSITION_INVALID timeline event, so a
// control-plane bug surfaces instead of silently dropping on the floor.
// The tables are shared, immutable specs; each dagRun entity owns a
// cheap fsm.Machine over them, mutated only on its session's loop (the
// single-owner mailbox model — no locking).
//
// Timeline emission is a transition observer: every vertex/task/attempt
// lifecycle event in the journal is produced by exactly one place — the
// observers below — instead of per-call-site Record calls. Creation
// events (DAGSubmitted, AttemptRequested) and the DAGFinished span
// closer (which needs the post-teardown duration) remain with their
// constructors and the run loop.

// Vertex lifecycle states.
type vState int

const (
	vNew vState = iota
	vIniting
	vInited
	vRunning
	vSucceeded
	vFailed
)

func (s vState) String() string {
	switch s {
	case vNew:
		return "NEW"
	case vIniting:
		return "INITING"
	case vInited:
		return "INITED"
	case vRunning:
		return "RUNNING"
	case vSucceeded:
		return "SUCCEEDED"
	case vFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("vState(%d)", int(s))
	}
}

// Task lifecycle states.
type tState int

const (
	tPending tState = iota
	tScheduled
	tRunning
	tSucceeded
	tFailed
)

func (s tState) String() string {
	switch s {
	case tPending:
		return "PENDING"
	case tScheduled:
		return "SCHEDULED"
	case tRunning:
		return "RUNNING"
	case tSucceeded:
		return "SUCCEEDED"
	case tFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("tState(%d)", int(s))
	}
}

// Attempt lifecycle states.
type aState int

const (
	aWaiting aState = iota // waiting for a container
	aRunning
	aSucceeded
	aFailed
	aKilled
)

func (s aState) String() string {
	switch s {
	case aWaiting:
		return "WAITING"
	case aRunning:
		return "RUNNING"
	case aSucceeded:
		return "SUCCEEDED"
	case aFailed:
		return "FAILED"
	case aKilled:
		return "KILLED"
	default:
		return fmt.Sprintf("aState(%d)", int(s))
	}
}

// DAG lifecycle events.
type dEvent int

const (
	dEvSucceed dEvent = iota // every vertex succeeded, commits done
	dEvFail                  // unrecoverable error (or injected AM crash)
	dEvKill                  // client kill
)

func (e dEvent) String() string {
	switch e {
	case dEvSucceed:
		return "D_SUCCEED"
	case dEvFail:
		return "D_FAIL"
	case dEvKill:
		return "D_KILL"
	default:
		return fmt.Sprintf("dEvent(%d)", int(e))
	}
}

// Vertex lifecycle events (the §3.3 vertex event list: V_INIT /
// V_INITED / V_START / V_COMPLETED plus re-run and recovery).
type vEvent int

const (
	vEvInitStart  vEvent = iota // data-source initializers launched
	vEvInited                   // parallelism decided, tasks created
	vEvStart                    // edge geometry complete, manager takes over
	vEvCompleted                // every task succeeded
	vEvRerun                    // a succeeded task rolled back (output lost)
	vEvTaskFailed               // a task exhausted MaxTaskAttempts
	vEvRecovered                // restored complete from an AM checkpoint
)

func (e vEvent) String() string {
	switch e {
	case vEvInitStart:
		return "V_INIT_START"
	case vEvInited:
		return "V_INITED"
	case vEvStart:
		return "V_START"
	case vEvCompleted:
		return "V_COMPLETED"
	case vEvRerun:
		return "V_RERUN"
	case vEvTaskFailed:
		return "V_TASK_FAILED"
	case vEvRecovered:
		return "V_RECOVERED"
	default:
		return fmt.Sprintf("vEvent(%d)", int(e))
	}
}

// Task lifecycle events.
type tEvent int

const (
	tEvSchedule  tEvent = iota // vertex manager released the task
	tEvLaunched                // an attempt got its container
	tEvSucceeded               // an attempt won
	tEvRerun                   // winner's output lost; task re-executes
	tEvExhausted               // MaxTaskAttempts genuine failures
	tEvRestored                // recovered as succeeded from a checkpoint
)

func (e tEvent) String() string {
	switch e {
	case tEvSchedule:
		return "T_SCHEDULE"
	case tEvLaunched:
		return "T_ATTEMPT_LAUNCHED"
	case tEvSucceeded:
		return "T_ATTEMPT_SUCCEEDED"
	case tEvRerun:
		return "T_RERUN"
	case tEvExhausted:
		return "T_ATTEMPTS_EXHAUSTED"
	case tEvRestored:
		return "T_RESTORED"
	default:
		return fmt.Sprintf("tEvent(%d)", int(e))
	}
}

// Attempt lifecycle events.
type aEvent int

const (
	aEvAssigned aEvent = iota // scheduler delivered a container
	aEvDone                   // the runner returned (multi-arc: outcome classified)
	aEvKill                   // cancelled before/while running (speculation loser, teardown, stale assignment)
)

func (e aEvent) String() string {
	switch e {
	case aEvAssigned:
		return "A_ASSIGNED"
	case aEvDone:
		return "A_DONE"
	case aEvKill:
		return "A_KILL"
	default:
		return fmt.Sprintf("aEvent(%d)", int(e))
	}
}

// attemptDone carries an A_DONE event's classification inputs into the
// multi-arc selector and the selected cause back out. The selector is
// the one place attempt outcomes are classified.
type attemptDone struct {
	failed          bool // runner returned a non-nil error
	containerKilled bool // the error is cluster.ErrContainerKilled
	inputError      bool // the error is a runtime.InputReadError casualty
	nodeDead        bool // the attempt's node was already known lost
	lostRace        bool // the task already has a winner (speculative twin)

	// cause (out) names the counter to charge for a casualty KILLED arc;
	// empty for SUCCEEDED, FAILED and the uncharged lost-race kill.
	cause string
}

// classifyAttemptDone is the A_DONE arc selector. Pure in its inputs so
// the property test can drive it with randomized payloads. A twin that
// FAILED after its sibling won is still classified as a genuine failure
// (or casualty) — losing the race never launders a real failure.
func classifyAttemptDone(_ *attemptState, payload any) aState {
	d := payload.(*attemptDone)
	switch {
	case !d.failed && d.lostRace:
		return aKilled
	case !d.failed:
		return aSucceeded
	case d.containerKilled:
		d.cause = "ATTEMPTS_KILLED"
		return aKilled
	case d.inputError:
		d.cause = "ATTEMPTS_KILLED_INPUT_ERROR"
		return aKilled
	case d.nodeDead:
		d.cause = "ATTEMPTS_KILLED_NODE_LOST"
		return aKilled
	default:
		return aFailed
	}
}

// The four transition tables. Build panics on malformed tables, so any
// test run validates them (no duplicate pairs, terminal states have no
// outgoing arcs, every state reachable).
var (
	dagLifecycle = (&fsm.Spec[*dagRun, DAGStatus, dEvent]{
		Name:     "dag",
		Initial:  DAGRunning,
		Terminal: []DAGStatus{DAGSucceeded, DAGFailed, DAGKilled},
		Transitions: []fsm.Transition[*dagRun, DAGStatus, dEvent]{
			{From: DAGRunning, On: dEvSucceed, To: DAGSucceeded},
			{From: DAGRunning, On: dEvFail, To: DAGFailed},
			{From: DAGRunning, On: dEvKill, To: DAGKilled},
		},
	}).Build()

	vertexLifecycle = (&fsm.Spec[*vertexState, vState, vEvent]{
		Name:     "vertex",
		Initial:  vNew,
		Terminal: []vState{vFailed},
		Transitions: []fsm.Transition[*vertexState, vState, vEvent]{
			{From: vNew, On: vEvInitStart, To: vIniting},
			{From: vNew, On: vEvInited, To: vInited},     // no initializers
			{From: vIniting, On: vEvInited, To: vInited}, // initializers done, parallelism known
			{From: vInited, On: vEvStart, To: vRunning},
			{From: vRunning, On: vEvCompleted, To: vSucceeded},
			// A consumer's InputReadError (or a node loss under an
			// ephemeral out-edge) rolls a finished vertex back (§4.3).
			{From: vSucceeded, On: vEvRerun, To: vRunning},
			{From: vRunning, On: vEvTaskFailed, To: vFailed},
			// AM recovery replays checkpointed completions through the
			// same table instead of reconstructing state by hand.
			{From: vNew, On: vEvRecovered, To: vSucceeded},
		},
	}).Build()

	taskLifecycle = (&fsm.Spec[*taskState, tState, tEvent]{
		Name:     "task",
		Initial:  tPending,
		Terminal: []tState{tFailed},
		Transitions: []fsm.Transition[*taskState, tState, tEvent]{
			{From: tPending, On: tEvSchedule, To: tScheduled},
			{From: tScheduled, On: tEvLaunched, To: tRunning},
			// Speculative twins launch while the task is already running.
			{From: tRunning, On: tEvLaunched, To: tRunning},
			{From: tRunning, On: tEvSucceeded, To: tSucceeded},
			{From: tSucceeded, On: tEvRerun, To: tRunning},
			{From: tRunning, On: tEvExhausted, To: tFailed},
			{From: tPending, On: tEvRestored, To: tSucceeded},
		},
	}).Build()

	attemptLifecycle = (&fsm.Spec[*attemptState, aState, aEvent]{
		Name:     "attempt",
		Initial:  aWaiting,
		Terminal: []aState{aSucceeded, aFailed, aKilled},
		Transitions: []fsm.Transition[*attemptState, aState, aEvent]{
			{From: aWaiting, On: aEvAssigned, To: aRunning},
			// The runner returned: the selector classifies success,
			// genuine failure, and the casualty kinds (container kill,
			// input-error casualty, node-loss race, lost speculative race).
			{From: aRunning, On: aEvDone, Arcs: []aState{aSucceeded, aFailed, aKilled},
				Select: classifyAttemptDone},
			{From: aWaiting, On: aEvKill, To: aKilled},
			{From: aRunning, On: aEvKill, To: aKilled},
		},
	}).Build()
)

// attemptOutcome maps a terminal attempt state to its journal/trace
// outcome string.
func attemptOutcome(s aState) string {
	switch s {
	case aSucceeded:
		return "SUCCEEDED"
	case aFailed:
		return "FAILED"
	default:
		return "KILLED"
	}
}

// recordInvalid journals one undeclared (state, event) firing. The
// machine's state was not changed; the journal entry is the evidence the
// old guard style destroyed.
func (r *dagRun) recordInvalid(err *fsm.InvalidTransitionError, vertex string, task, attempt int) {
	r.counters.Add("TRANSITIONS_INVALID", 1)
	r.tl().Record(timeline.Event{
		Type: timeline.TransitionInvalid, DAG: r.id,
		Vertex: vertex, Task: task, Attempt: attempt, Info: err.Error(),
	})
}

// newDAGMachine wires the run-level machine. The DAG observer emits
// nothing: DAGFinished is a span closer recorded by the run loop after
// teardown, when the final duration is known.
func newDAGMachine(r *dagRun) *fsm.Machine[*dagRun, DAGStatus, dEvent] {
	return dagLifecycle.New(r).
		OnInvalid(func(_ *dagRun, err *fsm.InvalidTransitionError) {
			r.recordInvalid(err, "", -1, -1)
		})
}

// newVertexMachine wires a vertex machine: the observer is the single
// emission point for VERTEX_INITED / VERTEX_STARTED / VERTEX_SUCCEEDED /
// VERTEX_RECOVERED.
func newVertexMachine(r *dagRun, vs *vertexState) *fsm.Machine[*vertexState, vState, vEvent] {
	return vertexLifecycle.New(vs).
		Observe(func(vs *vertexState, from, to vState, on vEvent) {
			switch on {
			case vEvInited:
				r.tl().Record(timeline.Event{
					Type: timeline.VertexInited, DAG: r.id,
					Vertex: vs.v.Name, Val: int64(vs.parallelism),
				})
			case vEvStart:
				r.tl().Record(timeline.Event{Type: timeline.VertexStarted, DAG: r.id, Vertex: vs.v.Name})
			case vEvCompleted:
				r.tl().Record(timeline.Event{Type: timeline.VertexSucceeded, DAG: r.id, Vertex: vs.v.Name})
			case vEvRecovered:
				r.tl().Record(timeline.Event{Type: timeline.VertexRecovered, DAG: r.id, Vertex: vs.v.Name})
			}
		}).
		OnInvalid(func(vs *vertexState, err *fsm.InvalidTransitionError) {
			r.recordInvalid(err, vs.v.Name, -1, -1)
		})
}

// newTaskMachine wires a task machine; the observer owns TASK_SCHEDULED.
func newTaskMachine(r *dagRun, ts *taskState) *fsm.Machine[*taskState, tState, tEvent] {
	return taskLifecycle.New(ts).
		Observe(func(ts *taskState, from, to tState, on tEvent) {
			if on == tEvSchedule {
				r.tl().Record(timeline.Event{
					Type: timeline.TaskScheduled, DAG: r.id,
					Vertex: ts.vertex.v.Name, Task: ts.idx,
				})
			}
		}).
		OnInvalid(func(ts *taskState, err *fsm.InvalidTransitionError) {
			r.recordInvalid(err, ts.vertex.v.Name, ts.idx, -1)
		})
}

// newAttemptMachine wires an attempt machine. The observer owns
// ATTEMPT_STARTED (on assignment) and — for every attempt that actually
// ran — the ATTEMPT_FINISHED journal entry, so speculation losers and
// teardown kills close their spans uniformly instead of vanishing.
func newAttemptMachine(r *dagRun, at *attemptState) *fsm.Machine[*attemptState, aState, aEvent] {
	return attemptLifecycle.New(at).
		Observe(func(at *attemptState, from, to aState, on aEvent) {
			switch {
			case from == aWaiting && to == aRunning:
				var cid int64
				if at.pc != nil {
					cid = int64(at.pc.c.ID)
				}
				r.tl().Record(timeline.Event{
					Type: timeline.AttemptStarted, DAG: r.id,
					Vertex: at.task.vertex.v.Name, Task: at.task.idx, Attempt: at.id,
					Node: at.node, Container: cid,
					Info: at.locality.String(), Val: int64(at.allocWait),
				})
			case from == aRunning:
				r.closeAttemptSpan(at, attemptOutcome(to))
			}
		}).
		OnInvalid(func(at *attemptState, err *fsm.InvalidTransitionError) {
			r.recordInvalid(err, at.task.vertex.v.Name, at.task.idx, at.id)
		})
}

// closeAttemptSpan journals a ran-to-terminal attempt.
func (r *dagRun) closeAttemptSpan(at *attemptState, outcome string) {
	end := r.clock()
	var cid int64
	if at.pc != nil {
		cid = int64(at.pc.c.ID)
	}
	var dur time.Duration
	if !at.start.IsZero() {
		dur = end.Sub(at.start)
	}
	r.tl().Record(timeline.Event{
		Type: timeline.AttemptFinished, DAG: r.id,
		Vertex: at.task.vertex.v.Name, Task: at.task.idx, Attempt: at.id,
		Node: at.node, Container: cid, Info: outcome, Dur: dur,
	})
}

// LifecycleTables renders the four declared control-plane transition
// tables ("dag", "vertex", "task", "attempt", in that order) in the
// given format: "mermaid" or "dot". This is the inspectability payoff of
// the table form — cmd/tez-fsm dumps these for DESIGN.md.
func LifecycleTables(format string) ([]LifecycleTable, error) {
	render := func(name string, mermaid, dot func() string) (LifecycleTable, error) {
		switch format {
		case "mermaid":
			return LifecycleTable{Machine: name, Text: mermaid()}, nil
		case "dot":
			return LifecycleTable{Machine: name, Text: dot()}, nil
		default:
			return LifecycleTable{}, fmt.Errorf("am: unknown table format %q (want mermaid or dot)", format)
		}
	}
	var out []LifecycleTable
	for _, m := range []struct {
		name         string
		mermaid, dot func() string
	}{
		{"dag", dagLifecycle.Mermaid, dagLifecycle.DOT},
		{"vertex", vertexLifecycle.Mermaid, vertexLifecycle.DOT},
		{"task", taskLifecycle.Mermaid, taskLifecycle.DOT},
		{"attempt", attemptLifecycle.Mermaid, attemptLifecycle.DOT},
	} {
		t, err := render(m.name, m.mermaid, m.dot)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// LifecycleTable is one rendered machine table.
type LifecycleTable struct {
	Machine string
	Text    string
}

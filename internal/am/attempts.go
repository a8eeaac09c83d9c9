package am

import (
	"errors"
	"fmt"

	"tez/internal/chaos"
	"tez/internal/cluster"
	"tez/internal/dag"
	"tez/internal/event"
	"tez/internal/mailbox"
	"tez/internal/plugin"
	"tez/internal/runtime"
	"tez/internal/timeline"
)

// scheduleTasks is the vertex-manager entry point: move the given pending
// tasks to scheduled and create their first attempts. Idempotent —
// already-scheduled ids are expected repeats, not transition attempts.
func (r *dagRun) scheduleTasks(vs *vertexState, ids []int) {
	if r.isFinished() || !vs.lc.In(vRunning) {
		return
	}
	for _, id := range ids {
		if id < 0 || id >= len(vs.tasks) {
			continue
		}
		ts := vs.tasks[id]
		if !ts.lc.In(tPending) {
			continue
		}
		ts.lc.Fire(tEvSchedule)
		r.newAttempt(ts, false)
	}
}

// newAttempt creates an attempt and asks the scheduler for a container.
func (r *dagRun) newAttempt(ts *taskState, speculative bool) *attemptState {
	at := newAttemptState(r, ts, speculative)
	ts.attempts = append(ts.attempts, at)
	req := &taskRequest{
		priority: ts.vertex.priority,
		hosts:    r.taskHosts(ts),
		tag:      r,
		dag:      r.id,
		assign: func(pc *pooledContainer) {
			r.onAssigned(at, pc)
		},
	}
	at.req = req
	info := ""
	if speculative {
		info = "speculative"
	}
	r.tl().Record(timeline.Event{
		Type: timeline.AttemptRequested, DAG: r.id,
		Vertex: ts.vertex.v.Name, Task: ts.idx, Attempt: at.id, Info: info,
	})
	r.session.sched.submit(req)
	r.counters.Add("ATTEMPTS_LAUNCHED", 1)
	if speculative {
		r.counters.Add("SPECULATIVE_ATTEMPTS", 1)
	}
	return at
}

// taskHosts computes locality preferences: initializer hints for root
// tasks, the source attempt's node for 1-1 edges (§4.2).
func (r *dagRun) taskHosts(ts *taskState) []cluster.NodeID {
	vs := ts.vertex
	if ts.idx < len(vs.locationHints) {
		if hints := vs.locationHints[ts.idx]; len(hints) > 0 {
			out := make([]cluster.NodeID, 0, len(hints))
			for _, h := range hints {
				out = append(out, cluster.NodeID(h))
			}
			return out
		}
	}
	for _, es := range r.inEdges[vs.v.Name] {
		if es.e.Property.Movement != dag.OneToOne {
			continue
		}
		if ts.idx < len(es.from.tasks) {
			if w := es.from.tasks[ts.idx].winner; w != nil && w.Node != "" {
				return []cluster.NodeID{cluster.NodeID(w.Node)}
			}
		}
	}
	return nil
}

// onAssigned launches the attempt in its container.
func (r *dagRun) onAssigned(at *attemptState, pc *pooledContainer) {
	if r.isFinished() || !at.lc.In(aWaiting) || at.task.lc.In(tSucceeded) {
		// Stale assignment: the container is healthy; recycle it.
		if at.lc.In(aWaiting) {
			at.lc.Fire(aEvKill)
		}
		r.session.sched.release(pc, true)
		return
	}
	// Populate the attempt before firing: the ATTEMPT_STARTED observer
	// reads node, container, locality and allocWait.
	at.pc = pc
	at.node = string(pc.c.Node())
	at.locality = pc.c.Locality
	at.start = r.clock()
	at.mbox = mailbox.New[event.Event]()
	loc := pc.c.Locality.String()
	r.counters.Add("LOCALITY_"+loc, 1)
	// Close the request→allocate→launch span: how long this attempt waited
	// for its container, bucketed by the locality level achieved.
	wait := r.clock().Sub(at.req.created)
	if wait < 0 {
		wait = 0
	}
	at.allocWait = wait
	r.counters.Add("SCHED_ALLOC_WAIT_NS_"+loc, int64(wait))
	r.counters.Add("SCHED_ALLOC_WAIT_COUNT_"+loc, 1)
	at.lc.Fire(aEvAssigned)
	// tScheduled → tRunning on the first launch; a self-loop for a
	// speculative twin joining an already-running task.
	at.task.lc.Fire(tEvLaunched)

	spec := r.buildTaskSpec(at)
	services := runtime.Services{
		FS:               r.session.plat.FS,
		Shuffle:          r.session.plat.Shuffle,
		Node:             at.node,
		Registry:         pc.registry,
		Counters:         r.counters,
		Token:            r.token,
		FetchParallelism: r.session.cfg.ShuffleFetchParallelism,
		Codec:            r.session.cfg.ShuffleCodec,
		Timeline:         r.tl(),
	}
	r.replayEvents(at)
	go func() {
		runner := &runtime.TaskRunner{
			Spec:     spec,
			Services: services,
			Incoming: at.mbox,
			Emit: func(ev event.Event) {
				r.postTaskEvent(at, ev)
			},
		}
		err := pc.c.Exec(func(stop <-chan struct{}) error { return runner.Run(stop) })
		r.postAttemptDone(at, err)
	}()
}

// buildTaskSpec assembles the runner spec from the current (possibly
// reconfigured) DAG geometry.
func (r *dagRun) buildTaskSpec(at *attemptState) runtime.TaskSpec {
	ts := at.task
	vs := ts.vertex
	spec := runtime.TaskSpec{
		Meta: runtime.Meta{
			DAG:               r.id,
			Vertex:            vs.v.Name,
			Task:              ts.idx,
			Attempt:           at.id,
			VertexParallelism: vs.parallelism,
		},
		Processor: vs.v.Processor,
	}
	for _, src := range vs.v.Sources {
		spec.Inputs = append(spec.Inputs, runtime.IOSpec{
			Name:          src.Name,
			Descriptor:    src.Input,
			PhysicalCount: 1,
		})
	}
	for _, es := range r.inEdges[vs.v.Name] {
		spec.Inputs = append(spec.Inputs, runtime.IOSpec{
			Name:          es.e.From,
			Descriptor:    es.e.Property.Input,
			PhysicalCount: es.mgr.NumDestinationTaskPhysicalInputs(ts.idx),
		})
	}
	for _, es := range r.outEdges[vs.v.Name] {
		// Broadcast/one-to-one producers may run before the consumer is
		// configured; their physical output count is always 1.
		phys := 1
		if es.mgr != nil {
			phys = es.mgr.NumSourceTaskPhysicalOutputs(ts.idx)
		}
		spec.Outputs = append(spec.Outputs, runtime.IOSpec{
			Name:          es.e.To,
			Descriptor:    es.e.Property.Output,
			PhysicalCount: phys,
		})
	}
	for _, sink := range vs.v.Sinks {
		spec.Outputs = append(spec.Outputs, runtime.IOSpec{
			Name:          sink.Name,
			Descriptor:    sink.Output,
			PhysicalCount: 1,
		})
	}
	return spec
}

// replayEvents delivers the task's root-input assignments and all stored
// upstream DataMovements to a newly started attempt.
func (r *dagRun) replayEvents(at *attemptState) {
	ts := at.task
	vs := ts.vertex
	// One PutAll: replay for a wide shuffle consumer delivers thousands of
	// stored movements; batching makes that one lock round-trip and one
	// consumer wakeup instead of one per event.
	var replay []event.Event
	for src, payloads := range vs.rootPayloads {
		if ts.idx < len(payloads) {
			replay = append(replay, event.RootInputDataInformation{
				TargetVertex: vs.v.Name,
				TargetTask:   ts.idx,
				InputName:    src,
				Payload:      payloads[ts.idx],
			})
		}
	}
	for _, es := range r.inEdges[vs.v.Name] {
		// Source tasks in order, each winner's movements in emission order:
		// a late-joining consumer sees what a running one did.
		for srcTask, moved := range es.published {
			for _, dm := range moved {
				for destTask, inputIdx := range es.mgr.Route(srcTask, dm.SrcOutputIndex) {
					if destTask != ts.idx {
						continue
					}
					routed := dm
					routed.TargetVertex = vs.v.Name
					routed.TargetTask = destTask
					routed.TargetInput = es.e.From
					routed.TargetInputIndex = inputIdx
					replay = append(replay, routed)
				}
			}
		}
	}
	at.mbox.PutAll(replay)
}

// onAttemptDone handles attempt termination: the A_DONE multi-arc
// transition classifies the outcome (classifyAttemptDone), the attempt
// observer closes the span, and only the post-classification consequences
// — counters, re-execution, MaxTaskAttempts — live here.
func (r *dagRun) onAttemptDone(at *attemptState, err error) {
	ts := at.task
	vs := ts.vertex
	pc := at.pc

	// Containers killed by the platform are unusable; anything else can be
	// reused for the next waiting task.
	containerKilled := errors.Is(err, cluster.ErrContainerKilled)
	if pc != nil && !containerKilled {
		r.session.sched.release(pc, !r.isFinished())
	} else if pc != nil {
		r.session.sched.onContainerStopped(pc.c.ID)
	}
	if at.mbox != nil {
		at.mbox.Close()
	}
	if r.isFinished() || !at.lc.In(aRunning) {
		return // zombie: already killed (teardown, speculation, preemption)
	}

	d := &attemptDone{
		failed:          err != nil,
		containerKilled: containerKilled,
		lostRace:        ts.lc.In(tSucceeded),
	}
	if err != nil {
		_, d.inputError = runtime.AsInputReadError(err)
		// A genuine error from a node already known dead raced the
		// node-failure notification in the mailbox: the machine's death,
		// not the task's fault.
		d.nodeDead = at.node != "" && r.deadNodes[at.node]
	}
	at.lc.FireWith(aEvDone, d)

	switch at.lc.State() {
	case aSucceeded:
		r.attemptSucceeded(at)
		return
	case aKilled:
		// A casualty — container kill, input-error cascade, node loss —
		// never counts toward MaxTaskAttempts or node health. A lost
		// speculative race charges nothing at all.
		if d.cause != "" {
			r.counters.Add(d.cause, 1)
		}
	case aFailed:
		ts.failures++
		r.counters.Add("ATTEMPTS_FAILED", 1)
		if r.session.health.taskFailed(at.node) {
			r.counters.Add("NODES_BLACKLISTED", 1)
		}
	}
	if ts.lc.In(tSucceeded) {
		return // a speculative twin already won
	}
	if ts.failures >= r.cfg.MaxTaskAttempts {
		ts.lc.Fire(tEvExhausted)
		vs.lc.Fire(vEvTaskFailed)
		r.fail(DAGFailed, fmt.Errorf("am: task %s/%d failed %d attempts, last: %w",
			vs.v.Name, ts.idx, ts.failures, err))
		return
	}
	if ts.runningAttempts() == 0 {
		r.newAttempt(ts, false)
	}
}

// attemptSucceeded commits a winning attempt's success into the task and
// vertex (the lost-race case was already classified aKilled by the A_DONE
// selector and never reaches here) and publishes its events.
func (r *dagRun) attemptSucceeded(at *attemptState) {
	ts := at.task
	vs := ts.vertex
	ts.lc.Fire(tEvSucceeded)
	ts.winner = &taskSuccess{Attempt: at.id, Node: at.node}
	vs.completed++
	vs.durations = append(vs.durations, r.clock().Sub(at.start))
	r.counters.Add("TASKS_SUCCEEDED", 1)

	// Kill the losing twins. A still-running loser's span is closed KILLED
	// by its observer; a waiting loser never started, so only its request
	// is withdrawn.
	for _, other := range ts.attempts {
		if other == at {
			continue
		}
		switch {
		case other.lc.In(aWaiting):
			other.lc.Fire(aEvKill)
			if other.req != nil {
				r.session.sched.cancel(other.req)
			}
		case other.lc.In(aRunning):
			other.lc.Fire(aEvKill)
			if other.pc != nil {
				r.session.sched.discard(other.pc)
			}
		}
	}

	// Publish before the completion, so managers see the task's
	// statistics first. A manager may fail the DAG on them.
	r.publishEvents(at)
	if r.isFinished() {
		return
	}
	for _, es := range r.outEdges[vs.v.Name] {
		if es.to.managerStarted {
			es.to.manager.OnSourceTaskCompleted(vs.v.Name, ts.idx)
		}
	}
	if vs.completed == vs.parallelism {
		r.vertexSucceeded(vs)
	}
}

// vertexSucceeded finalises a vertex: launch sink committers, checkpoint,
// and maybe finish the DAG.
func (r *dagRun) vertexSucceeded(vs *vertexState) {
	if vs.lc.In(vSucceeded) {
		return
	}
	// The observer journals VERTEX_SUCCEEDED here — before saveCheckpoint,
	// so the checkpointed journal stream includes this vertex's completion
	// (AM-crash recovery coherence).
	vs.lc.Fire(vEvCompleted)
	r.counters.Add("VERTICES_SUCCEEDED", 1)
	r.session.sched.sweepVertexRegistries(r.id, vs.v.Name)
	if len(vs.v.Sinks) > 0 && !vs.committed {
		r.startCommit(vs)
	}
	if r.cfg.CheckpointPath != "" {
		r.saveCheckpoint()
	}
	if r.cfg.Chaos.OnVertexCompleted() {
		// Injected AM crash: the checkpoint above (if any) is on disk; a
		// fresh session can Recover this DAG from it.
		r.fail(DAGFailed, chaos.ErrAMCrash)
		return
	}
	r.maybeFinish()
}

// startCommit launches a succeeded vertex's sink commit. The winners are
// snapshotted here, on the event loop, not inside the commit goroutine: a
// node failure can roll a succeeded task back (reexecuteTask, for
// ephemeral-edge consumers) while the commit is in flight, nilling
// ts.winner under it. The attempts that were winners at success time
// wrote their sink temp files to reliable storage, so committing them
// stays correct regardless of later re-execution for shuffle regeneration.
func (r *dagRun) startCommit(vs *vertexState) {
	vs.committed = true
	r.pendingCommits++
	success := make(map[int]int, len(vs.tasks))
	var missing error
	for _, ts := range vs.tasks {
		if ts.winner == nil {
			missing = fmt.Errorf("am: commit %s: task %d has no successful attempt", vs.v.Name, ts.idx)
			break
		}
		success[ts.idx] = ts.winner.Attempt
	}
	go func() {
		err := missing
		if err == nil {
			err = r.commitSinks(vs, success)
		}
		r.session.mb.Put(msgCommitDone{r: r, vs: vs, err: err})
	}()
}

// commitSinks runs each sink's committer exactly once (§3.1), with the
// success map captured when the vertex first succeeded.
func (r *dagRun) commitSinks(vs *vertexState, success map[int]int) error {
	for _, sink := range vs.v.Sinks {
		if sink.Committer.IsZero() {
			continue
		}
		c, err := plugin.New[runtime.Committer](plugin.KindCommitter, sink.Committer)
		if err != nil {
			return err
		}
		err = c.Commit(&runtime.CommitContext{
			DAG:               r.id,
			Vertex:            vs.v.Name,
			Sink:              sink.Name,
			Payload:           sink.Committer.Payload,
			FS:                r.session.plat.FS,
			Parallelism:       vs.parallelism,
			SuccessfulAttempt: success,
		})
		if err != nil {
			return fmt.Errorf("am: commit %s/%s: %w", vs.v.Name, sink.Name, err)
		}
	}
	return nil
}

func (r *dagRun) onCommitDone(vs *vertexState, err error) {
	r.pendingCommits--
	if err != nil {
		r.fail(DAGFailed, err)
		return
	}
	vs.commitComplete = true
	r.counters.Add("SINKS_COMMITTED", 1)
	if r.cfg.CheckpointPath != "" {
		r.saveCheckpoint()
	}
	r.maybeFinish()
}

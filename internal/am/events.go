package am

import (
	"tez/internal/cluster"
	"tez/internal/dag"
	"tez/internal/event"
	"tez/internal/timeline"
)

// onTaskEvent takes a control event emitted by a task (§3.3): the
// framework inspects only the envelope and routes the opaque payload. An
// InputReadError acts at once — the attempt reporting it is failing.
// Everything else waits on the attempt until it succeeds (publishEvents),
// so no consumer, manager or initializer ever hears from an attempt that
// does not win its task.
func (r *dagRun) onTaskEvent(at *attemptState, ev event.Event) {
	if r.isFinished() {
		return
	}
	// Zombie protection: only currently-running attempts may influence the
	// control plane.
	if !at.lc.In(aRunning) {
		return
	}
	switch e := ev.(type) {
	case event.InputReadError:
		r.onInputReadError(e)
	case event.DataMovement, event.VertexManagerEvent, event.InputInitializerEvent:
		at.events = append(at.events, e)
	}
}

// publishEvents releases a winning attempt's events in emission order:
// each movement joins its source task's published stream and reaches the
// running consumer attempts, statistics reach their vertex manager and
// pruning values their initializer.
func (r *dagRun) publishEvents(at *attemptState) {
	for _, ev := range at.events {
		switch e := ev.(type) {
		case event.DataMovement:
			r.routeDataMovement(at.task, e)
		case event.VertexManagerEvent:
			r.routeVMEvent(e)
		case event.InputInitializerEvent:
			r.routeInitializerEvent(e)
		}
	}
	at.events = nil
}

// routeDataMovement records a winner's movement and delivers it to running
// consumer attempts per the edge manager's connection pattern (Figure 5).
// If the consumer's routing table does not exist yet (producer ran ahead
// of consumer configuration), the stored movement is replayed when
// consumer attempts start. A movement naming another task than its sender
// is dropped: a task publishes only its own stream.
func (r *dagRun) routeDataMovement(ts *taskState, dm event.DataMovement) {
	if dm.SrcVertex != ts.vertex.v.Name || dm.SrcTask != ts.idx {
		return
	}
	es := r.findEdge(dm.SrcVertex, dm.TargetVertex)
	if es == nil {
		return
	}
	es.publish(dm)
	if es.mgr != nil {
		r.deliverMovement(es, dm)
	}
}

func (r *dagRun) deliverMovement(es *edgeState, dm event.DataMovement) {
	for destTask, inputIdx := range es.mgr.Route(dm.SrcTask, dm.SrcOutputIndex) {
		if destTask >= len(es.to.tasks) {
			continue
		}
		routed := dm
		routed.TargetVertex = es.to.v.Name
		routed.TargetTask = destTask
		routed.TargetInput = es.e.From
		routed.TargetInputIndex = inputIdx
		for _, cat := range es.to.tasks[destTask].attempts {
			if cat.lc.In(aRunning) {
				cat.mbox.Put(routed)
			}
		}
	}
}

// routeVMEvent delivers statistics to the target vertex's manager,
// buffering if the manager does not exist yet.
func (r *dagRun) routeVMEvent(e event.VertexManagerEvent) {
	vs, ok := r.vertices[e.TargetVertex]
	if !ok {
		return
	}
	if vs.managerStarted {
		vs.manager.OnVertexManagerEvent(e)
		return
	}
	vs.pendingVM = append(vs.pendingVM, e)
}

// routeInitializerEvent feeds a data-source initializer (§3.5, dynamic
// partition pruning).
func (r *dagRun) routeInitializerEvent(e event.InputInitializerEvent) {
	vs, ok := r.vertices[e.TargetVertex]
	if !ok {
		return
	}
	if mbx, ok := vs.initEvents[e.TargetDataSource]; ok {
		mbx.Put(e)
	}
}

func (r *dagRun) findEdge(from, to string) *edgeState {
	for _, es := range r.outEdges[from] {
		if es.e.To == to {
			return es
		}
	}
	return nil
}

// onInputReadError re-executes the producer whose intermediate data was
// lost (§4.3). Cascades happen naturally: if the re-executed producer also
// cannot read its inputs, its own InputReadError walks one more step up
// the DAG, until a reliable edge (or a root input in the DFS) provides a
// barrier.
func (r *dagRun) onInputReadError(e event.InputReadError) {
	vs, ok := r.vertices[e.SrcVertex]
	if !ok || e.SrcTask < 0 || e.SrcTask >= len(vs.tasks) {
		return
	}
	ts := vs.tasks[e.SrcTask]
	if ts.winner == nil || ts.winner.Attempt != e.SrcAttempt {
		// Stale report: the producer is already being handled.
		return
	}
	r.counters.Add("INPUT_READ_ERRORS", 1)
	// Attribute the loss to the producer's node — unless that node is
	// already known dead (the loss is then the node failure's doing, not
	// evidence of a sick-but-alive machine).
	node := ts.winner.Node
	r.tl().Record(timeline.Event{
		Type: timeline.InputReadError, DAG: r.id,
		Vertex: e.SrcVertex, Task: e.SrcTask, Attempt: e.SrcAttempt, Node: node,
	})
	if node != "" && !r.deadNodes[node] {
		if r.session.health.fetchFailed(node) {
			r.counters.Add("NODES_BLACKLISTED", 1)
		}
	}
	r.reexecuteTask(ts)
}

// reexecuteTask rolls a succeeded task back and schedules a fresh attempt.
// Its published movements are withdrawn, and every running consumer attempt
// is told to drop the lost output: one InputFailed per routed (consumer
// task, input index), which the consumer applies on attempt match. This is
// the only sender of InputFailed. FIFO mailboxes and the single-threaded
// session loop order it before the rerun's movements, which are published
// when the rerun succeeds.
func (r *dagRun) reexecuteTask(ts *taskState) {
	vs := ts.vertex
	lost := ts.winner.Attempt
	ts.winner = nil
	ts.lc.Fire(tEvRerun)
	vs.completed--
	if vs.lc.In(vSucceeded) {
		vs.lc.Fire(vEvRerun)
	}
	r.counters.Add("TASKS_REEXECUTED", 1)

	for _, es := range r.outEdges[vs.v.Name] {
		if ts.idx >= len(es.published) {
			continue
		}
		moved := es.published[ts.idx]
		es.published[ts.idx] = nil
		if es.mgr == nil {
			continue
		}
		notified := make(map[[2]int]bool)
		for _, dm := range moved {
			for destTask, inputIdx := range es.mgr.Route(ts.idx, dm.SrcOutputIndex) {
				if destTask >= len(es.to.tasks) || notified[[2]int{destTask, inputIdx}] {
					continue
				}
				notified[[2]int{destTask, inputIdx}] = true
				retract := event.InputFailed{
					TargetVertex:     es.to.v.Name,
					TargetTask:       destTask,
					TargetInput:      es.e.From,
					TargetInputIndex: inputIdx,
					SrcTask:          ts.idx,
					SrcAttempt:       lost,
				}
				for _, cat := range es.to.tasks[destTask].attempts {
					if cat.lc.In(aRunning) {
						cat.mbox.Put(retract)
					}
				}
			}
		}
	}
	r.newAttempt(ts, false)
}

// onNodeFailed proactively re-executes completed tasks whose (ephemeral)
// outputs lived on the lost machine, decreasing the chance that consumers
// hit InputReadErrors later (§4.3). Tasks whose outputs all cross reliable
// edges — or go only to DFS sinks — are spared: reliable storage is the
// barrier to cascading re-execution.
func (r *dagRun) onNodeFailed(node cluster.NodeID, planned bool) {
	if r.isFinished() {
		return
	}
	r.deadNodes[string(node)] = true
	if planned {
		// A drain is operator-initiated: re-execute what must be, but the
		// node did nothing wrong — it never touches health counters.
		r.counters.Add("NODE_DECOMMISSIONS_OBSERVED", 1)
	} else {
		r.counters.Add("NODE_FAILURES_OBSERVED", 1)
	}
	for _, name := range r.topo {
		vs := r.vertices[name]
		ephemeral := false
		for _, es := range r.outEdges[name] {
			if es.e.Property.Resilience == dag.Ephemeral {
				ephemeral = true
				break
			}
		}
		if !ephemeral {
			continue
		}
		for _, ts := range vs.tasks {
			if ts.winner != nil && ts.winner.Node == string(node) {
				r.reexecuteTask(ts)
			}
		}
	}
}

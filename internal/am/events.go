package am

import (
	"tez/internal/cluster"
	"tez/internal/dag"
	"tez/internal/event"
	"tez/internal/timeline"
)

// onTaskEvent routes a control event emitted by a task (§3.3): the
// framework inspects only the envelope and routes the opaque payload.
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
	case event.DataMovement:
		r.routeDataMovement(e)
	case event.VertexManagerEvent:
		r.routeVMEvent(e)
	case event.InputInitializerEvent:
		r.routeInitializerEvent(e)
	case event.InputReadError:
		r.onInputReadError(e)
	}
}

// routeDataMovement buffers a movement under its attempt and delivers it
// to running consumer attempts per the edge manager's connection pattern
// (Figure 5) — but only when the emitting attempt owns the source task's
// delivered stream. The first attempt to publish claims delivery; a
// speculative twin's movements stay buffered until a retraction or winner
// switchover promotes them, so consumers never see two attempts of one
// task at once.
func (r *dagRun) routeDataMovement(dm event.DataMovement) {
	es := r.findEdge(dm.SrcVertex, dm.TargetVertex)
	if es == nil {
		return
	}
	// Always record the movement; if the consumer's routing table does not
	// exist yet (producer ran ahead of consumer configuration), the stored
	// movement is replayed when consumer attempts start.
	sm := es.srcs[dm.SrcTask]
	if sm == nil {
		sm = &srcMovements{delivered: -1, byAttempt: make(map[int][]event.DataMovement)}
		es.srcs[dm.SrcTask] = sm
	}
	sm.byAttempt[dm.SrcAttempt] = append(sm.byAttempt[dm.SrcAttempt], dm)
	if sm.delivered < 0 {
		sm.delivered = dm.SrcAttempt
	}
	if sm.delivered == dm.SrcAttempt && es.mgr != nil {
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

// sendRetractions tells running consumer attempts that every movement in
// moved (one attempt's published stream for srcTask) is obsolete. One
// InputFailed per routed (consumer task, input index) suffices: the
// consumer drops what it holds for that input on attempt match. FIFO
// mailboxes and the single-threaded dispatcher guarantee the
// retraction is observed before any replacement movement sent afterwards.
func (r *dagRun) sendRetractions(es *edgeState, srcTask, attempt int, moved []event.DataMovement) {
	if es.mgr == nil {
		return
	}
	notified := make(map[[2]int]bool)
	for _, dm := range moved {
		for destTask, inputIdx := range es.mgr.Route(srcTask, dm.SrcOutputIndex) {
			if destTask >= len(es.to.tasks) || notified[[2]int{destTask, inputIdx}] {
				continue
			}
			notified[[2]int{destTask, inputIdx}] = true
			retract := event.InputFailed{
				TargetVertex:     es.to.v.Name,
				TargetTask:       destTask,
				TargetInput:      es.e.From,
				TargetInputIndex: inputIdx,
				SrcTask:          srcTask,
				SrcAttempt:       attempt,
			}
			for _, cat := range es.to.tasks[destTask].attempts {
				if cat.lc.In(aRunning) {
					cat.mbox.Put(retract)
				}
			}
		}
	}
}

// retractAttemptMovements discards a dead attempt's buffered movements on
// every out-edge. If the attempt owned the delivered stream, consumers
// are told to drop it and a surviving twin's buffered stream (the winner,
// or a still-running speculative attempt — later attempts preferred) is
// delivered in its place. Without this, an attempt that announced data
// through ctx.Emit and then died would leave consumers holding (or
// fetching) a failed attempt's output.
func (r *dagRun) retractAttemptMovements(at *attemptState) {
	ts := at.task
	for _, es := range r.outEdges[ts.vertex.v.Name] {
		sm := es.srcs[ts.idx]
		if sm == nil {
			continue
		}
		moved := sm.byAttempt[at.id]
		delete(sm.byAttempt, at.id)
		if sm.delivered != at.id {
			if len(sm.byAttempt) == 0 && sm.delivered < 0 {
				delete(es.srcs, ts.idx)
			}
			continue
		}
		sm.delivered = -1
		r.sendRetractions(es, ts.idx, at.id, moved)
		// Promote a replacement stream: the winner's, else the newest
		// still-running attempt's.
		var cand *attemptState
		for _, other := range ts.attempts {
			if other == at || len(sm.byAttempt[other.id]) == 0 {
				continue
			}
			if other == ts.winner || other.lc.In(aRunning) {
				if cand == nil || other.id > cand.id {
					cand = other
				}
			}
		}
		if cand != nil {
			sm.delivered = cand.id
			if es.mgr != nil {
				for _, dm := range sm.byAttempt[cand.id] {
					r.deliverMovement(es, dm)
				}
			}
		} else if len(sm.byAttempt) == 0 {
			delete(es.srcs, ts.idx)
		}
	}
}

// promoteWinnerMovements makes the winning attempt's stream the delivered
// one on every out-edge, retracting a losing twin's stream if that one had
// been delivered first, and prunes the losers' buffers — after success
// only the winner's movements matter for replay and recovery.
func (r *dagRun) promoteWinnerMovements(at *attemptState) {
	ts := at.task
	for _, es := range r.outEdges[ts.vertex.v.Name] {
		sm := es.srcs[ts.idx]
		if sm == nil {
			continue
		}
		if sm.delivered != at.id {
			old := sm.delivered
			if old >= 0 {
				r.sendRetractions(es, ts.idx, old, sm.byAttempt[old])
			}
			sm.delivered = -1
			if len(sm.byAttempt[at.id]) > 0 {
				sm.delivered = at.id
				if es.mgr != nil {
					for _, dm := range sm.byAttempt[at.id] {
						r.deliverMovement(es, dm)
					}
				}
			}
		}
		for id := range sm.byAttempt {
			if id != at.id {
				delete(sm.byAttempt, id)
			}
		}
		if len(sm.byAttempt) == 0 {
			delete(es.srcs, ts.idx)
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
	current := -1
	if ts.winner != nil {
		current = ts.winner.id
	} else if ts.restored {
		current = ts.restoredAttempt
	}
	if !ts.lc.In(tSucceeded) || current != e.SrcAttempt {
		// Stale report: the producer is already being handled.
		return
	}
	r.counters.Add("INPUT_READ_ERRORS", 1)
	// Attribute the loss to the producer's node — unless that node is
	// already known dead (the loss is then the node failure's doing, not
	// evidence of a sick-but-alive machine).
	node := ""
	if ts.winner != nil {
		node = ts.winner.node
	} else if ts.restored {
		node = ts.restoredNode
	}
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

// reexecuteTask rolls a succeeded task back and schedules a fresh attempt,
// retracting its published data movements from running consumers.
func (r *dagRun) reexecuteTask(ts *taskState) {
	vs := ts.vertex
	oldAttempt := -1
	if ts.winner != nil {
		oldAttempt = ts.winner.id
	} else if ts.restored {
		oldAttempt = ts.restoredAttempt
	}
	ts.restored = false
	ts.winner = nil
	ts.lc.Fire(tEvRerun)
	vs.completed--
	if vs.lc.In(vSucceeded) {
		vs.lc.Fire(vEvRerun)
	}
	r.counters.Add("TASKS_REEXECUTED", 1)

	// Retract stored movements of this task and notify running consumers;
	// the rerun attempt announces its own.
	for _, es := range r.outEdges[vs.v.Name] {
		sm := es.srcs[ts.idx]
		if sm == nil {
			continue
		}
		if sm.delivered >= 0 {
			r.sendRetractions(es, ts.idx, oldAttempt, sm.deliveredMovements())
		}
		delete(es.srcs, ts.idx)
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
			if !ts.lc.In(tSucceeded) {
				continue
			}
			onNode := ts.restored && ts.restoredNode == string(node) ||
				(ts.winner != nil && ts.winner.node == string(node))
			if onNode {
				r.reexecuteTask(ts)
			}
		}
	}
}

package am

import (
	"tez/internal/dag"
	"tez/internal/event"
	"tez/internal/plugin"
	"tez/internal/timeline"
)

// The AM periodically checkpoints its state; if the node running the AM
// fails, YARN restarts it elsewhere and the AM recovers from the
// checkpoint (§4.3). We checkpoint after every vertex completion (and
// after every sink commit): completed vertices are restored — their
// shuffle outputs are still on the cluster, which survives AM death — and
// unfinished vertices re-run. Checkpoints are written, and Recover reads
// them, only when Config.CheckpointPath is set.

type vertexCheckpoint struct {
	Parallelism int
	// Ranges are the vertex's partition ranges (vertexState.ranges), nil
	// unless it was auto-reduced.
	Ranges    []int
	Tasks     []taskSuccess
	Committed bool
}

type edgeCheckpoint struct {
	From, To  string
	BaseParts int
	Movements []event.DataMovement
}

type checkpoint struct {
	RunID    string
	DAGName  string
	Vertices map[string]vertexCheckpoint
	Edges    []edgeCheckpoint
	// Timeline is the run's journal stream at checkpoint time. On recovery
	// it is Imported into the new AM's journal, which dedupes by sequence
	// number — the merged history is coherent across the crash.
	Timeline []timeline.Event
}

// checkpointPath names a DAG's checkpoint file under Config.CheckpointPath.
func checkpointPath(cfg Config, dagName string) string {
	return cfg.CheckpointPath + "/" + dagName
}

// saveCheckpoint snapshots completed vertices and their movement history.
func (r *dagRun) saveCheckpoint() {
	cp := checkpoint{
		RunID:    r.id,
		DAGName:  r.d.Name,
		Vertices: map[string]vertexCheckpoint{},
	}
	for name, vs := range r.vertices {
		if !vs.lc.In(vSucceeded) {
			continue
		}
		vc := vertexCheckpoint{Parallelism: vs.parallelism, Ranges: vs.ranges, Committed: vs.commitComplete}
		for _, ts := range vs.tasks {
			vc.Tasks = append(vc.Tasks, *ts.winner)
		}
		cp.Vertices[name] = vc
	}
	for _, es := range r.edges {
		if _, ok := cp.Vertices[es.e.From]; !ok {
			continue
		}
		ec := edgeCheckpoint{From: es.e.From, To: es.e.To, BaseParts: es.baseParts}
		// Task order, then emission order: recovery replays the same
		// movements a live consumer saw.
		for _, moved := range es.published {
			ec.Movements = append(ec.Movements, moved...)
		}
		cp.Edges = append(cp.Edges, ec)
	}
	cp.Timeline = r.tl().DAGEvents(r.id)
	data := plugin.MustEncode(cp)
	fs := r.session.plat.FS
	path := checkpointPath(r.cfg, r.d.Name)
	fs.Delete(path)
	_ = fs.WriteFile(path, "", data)
}

// loadCheckpoint reads a DAG's checkpoint, if the session keeps any.
func loadCheckpoint(s *Session, dagName string) (*checkpoint, bool) {
	if s.cfg.CheckpointPath == "" {
		return nil, false
	}
	data, err := s.plat.FS.ReadFile(checkpointPath(s.cfg, dagName), "")
	if err != nil {
		return nil, false
	}
	var cp checkpoint
	if err := plugin.Decode(data, &cp); err != nil {
		return nil, false
	}
	return &cp, true
}

// applyCheckpoint restores completed vertices and edge movement history
// into a fresh run (invoked on the session's loop at bootstrap, before any
// routing table is built: a restored consumer's in-edges route by its
// restored ranges, so a task of it re-executed later reads the partitions
// it read before).
func (r *dagRun) applyCheckpoint(cp *checkpoint) {
	r.tl().Import(cp.Timeline)
	restored := 0
	for name, vc := range cp.Vertices {
		vs, ok := r.vertices[name]
		if !ok || vc.Parallelism <= 0 || len(vc.Tasks) != vc.Parallelism ||
			(vc.Ranges != nil && len(vc.Ranges) != vc.Parallelism) {
			continue
		}
		vs.parallelism = vc.Parallelism
		vs.ranges = vc.Ranges
		vs.tasks = make([]*taskState, vc.Parallelism)
		for i := range vs.tasks {
			ts := newTaskState(r, vs, i)
			ts.winner = &vc.Tasks[i]
			// Replay the checkpointed completion through the lifecycle
			// table instead of reconstructing the state by hand.
			ts.lc.Fire(tEvRestored)
			vs.tasks[i] = ts
		}
		vs.completed = vc.Parallelism
		// vNew → vSucceeded; the observer journals VERTEX_RECOVERED.
		vs.lc.Fire(vEvRecovered)
		vs.commitComplete = vc.Committed
		vs.committed = vc.Committed
		r.counters.Add("VERTICES_RECOVERED", 1)
		restored++
	}
	r.tl().Record(timeline.Event{
		Type: timeline.DAGRecovered, DAG: r.id,
		Info: r.d.Name, Val: int64(restored),
	})
	for _, ec := range cp.Edges {
		es := r.findEdge(ec.From, ec.To)
		if es == nil {
			continue
		}
		es.baseParts = ec.BaseParts
		for _, dm := range ec.Movements {
			es.publish(dm)
		}
	}
	// Restored vertices with unfinished commits must still commit.
	for name, vc := range cp.Vertices {
		vs, ok := r.vertices[name]
		if ok && vs.lc.In(vSucceeded) && len(vs.v.Sinks) > 0 && !vc.Committed {
			r.startCommit(vs)
		}
	}
}

// Recover submits a DAG, resuming from its checkpoint when one exists: the
// run keeps its original id so still-registered shuffle outputs remain
// addressable. A session without a CheckpointPath keeps no checkpoints,
// so for it Recover is Submit.
func (s *Session) Recover(d *dag.DAG) (*DAGRun, error) {
	cp, ok := loadCheckpoint(s, d.Name)
	if !ok {
		return s.Submit(d)
	}
	run, err := newDAGRun(s, d, cp.RunID)
	if err != nil {
		return nil, err
	}
	run.recovered = cp
	return s.admit(run)
}

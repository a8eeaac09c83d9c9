package am

import (
	"time"

	"tez/internal/timeline"
)

// amBacklogReportThreshold gates AM_BACKLOG journal events: mailbox-depth
// high-water marks below it are tracked in the counter gauge only, so a
// healthy run (backlog ~0–2) does not spam the timeline.
const amBacklogReportThreshold = 16

const (
	// speculationMinCompleted completed tasks are required in a vertex
	// before its stragglers are estimated.
	speculationMinCompleted = 3
	// deadlockCheckInterval and deadlockWait pace deadlock detection: when
	// requests have been starved for deadlockWait while a descendant of
	// the starved vertex occupies a container, the descendant attempt is
	// preempted (§3.4).
	deadlockCheckInterval = 5 * time.Millisecond
	deadlockWait          = 50 * time.Millisecond
)

// onTick runs the periodic checks: straggler speculation (§4.2) and
// out-of-order scheduling deadlock preemption (§3.4).
func (r *dagRun) onTick() {
	if r.cfg.Speculation {
		r.checkSpeculation()
	}
	r.checkDeadlock()
}

// observeBacklog records the size n of a drained batch — the messages
// that queued while the dispatcher was busy. The high-water mark is kept
// as the AM_MAILBOX_BACKLOG_MAX gauge; crossing the report threshold also
// journals an AM_BACKLOG event, making a stuck or starved dispatcher
// visible in the timeline instead of only as a hang.
func (r *dagRun) observeBacklog(batch int) {
	n := int64(batch)
	if n <= r.backlogMax {
		return
	}
	r.backlogMax = n
	r.counters.SetMax("AM_MAILBOX_BACKLOG_MAX", n)
	if n >= amBacklogReportThreshold {
		r.tl().Record(timeline.Event{Type: timeline.AMBacklog, DAG: r.id, Val: n})
	}
}

// checkSpeculation launches a speculative twin for attempts running far
// longer than the vertex's mean completed-task runtime: the clone races
// the original to completion (§4.2, Speculation).
func (r *dagRun) checkSpeculation() {
	now := r.clock()
	for _, vs := range r.vertices {
		if !vs.lc.In(vRunning) || len(vs.durations) < speculationMinCompleted {
			continue
		}
		var total time.Duration
		for _, d := range vs.durations {
			total += d
		}
		mean := total / time.Duration(len(vs.durations))
		threshold := time.Duration(float64(mean) * r.cfg.SpeculationFactor)
		if threshold <= 0 {
			continue
		}
		for _, ts := range vs.tasks {
			if !ts.lc.In(tRunning) || len(ts.attempts) == 0 {
				continue
			}
			// One speculative attempt per task, only when exactly one
			// original is running.
			running := 0
			speculated := false
			var oldest *attemptState
			for _, at := range ts.attempts {
				if at.speculative {
					speculated = true
				}
				if at.lc.In(aRunning) {
					running++
					if oldest == nil || at.start.Before(oldest.start) {
						oldest = at
					}
				}
			}
			if speculated || running != 1 || oldest == nil {
				continue
			}
			if now.Sub(oldest.start) > threshold {
				r.newAttempt(ts, true)
			}
		}
	}
}

// checkDeadlock detects the scheduling deadlock of §3.4: an out-of-order
// scheduled descendant holds a container while an ancestor task starves.
// The DAG dependency identifies the descendant, which is preempted.
func (r *dagRun) checkDeadlock() {
	n, oldest, sinceAssign, minPrio := r.session.sched.pendingInfo(r)
	if n == 0 || oldest < deadlockWait || sinceAssign < deadlockWait {
		return
	}
	// Preempt the most-downstream, youngest running attempt of a vertex
	// strictly below the starved priority.
	var victim *attemptState
	for _, vs := range r.vertices {
		if vs.priority <= minPrio {
			continue
		}
		for _, ts := range vs.tasks {
			for _, at := range ts.attempts {
				if !at.lc.In(aRunning) || at.pc == nil {
					continue
				}
				if victim == nil ||
					at.task.vertex.priority > victim.task.vertex.priority ||
					(at.task.vertex.priority == victim.task.vertex.priority && at.start.After(victim.start)) {
					victim = at
				}
			}
		}
	}
	if victim == nil {
		return
	}
	r.counters.Add("DEADLOCK_PREEMPTIONS", 1)
	// Releasing the container kills the attempt (ErrContainerKilled),
	// which reschedules the task via the normal KILLED path.
	r.session.sched.discard(victim.pc)
}

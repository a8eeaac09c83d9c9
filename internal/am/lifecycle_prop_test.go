package am

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tez/internal/dag"
	"tez/internal/fsm"
	"tez/internal/metrics"
	"tez/internal/timeline"
)

// The lifecycle property test drives the four real AM transition tables
// with seeded, randomized legal-and-illegal event sequences and asserts
// the invariants the tables exist to enforce:
//
//   - an undeclared (state, event) pair never mutates state, never
//     panics, returns *fsm.InvalidTransitionError, and journals exactly
//     one TRANSITION_INVALID event;
//   - terminal states are absorbing (every event is rejected there);
//   - every declared state of every machine is reached by some seed.
//
// Run under -race via `make race` / CI.

const (
	propSeeds = 50
	propSteps = 80
)

// propRun builds the minimal dagRun harness the machine observers need:
// a journal, counters and the run-level machine.
func propRun() *dagRun {
	r := &dagRun{
		id:       "prop",
		counters: metrics.NewCounters(),
		cfg:      Config{Timeline: timeline.New()}.withDefaults(),
	}
	r.lc = newDAGMachine(r)
	return r
}

// countInvalidJournal counts TRANSITION_INVALID events in the harness
// journal.
func countInvalidJournal(r *dagRun) int {
	n := 0
	for _, e := range r.cfg.Timeline.Events() {
		if e.Type == timeline.TransitionInvalid {
			n++
		}
	}
	return n
}

// driveMachine fires steps random events (legal and illegal mixed) at m,
// checking the no-mutation/error/journal invariants at every step and
// recording which states were visited.
func driveMachine[Op any, S comparable, E comparable](
	t *testing.T, rng *rand.Rand, r *dagRun,
	spec *fsm.Spec[Op, S, E], m *fsm.Machine[Op, S, E],
	payload func(E) any, visited map[S]bool, steps int,
) {
	t.Helper()
	events := spec.Events()
	visited[m.State()] = true
	for i := 0; i < steps; i++ {
		ev := events[rng.Intn(len(events))]
		before := m.State()
		wasTerminal := m.Terminal()
		legal := m.Can(ev)
		if wasTerminal && legal {
			t.Fatalf("%s: terminal state %v has a legal event %v", spec.Name, before, ev)
		}
		invBefore := r.counters.Get("TRANSITIONS_INVALID")
		err := m.FireWith(ev, payload(ev))
		switch {
		case legal:
			if err != nil {
				t.Fatalf("%s: legal %v from %v returned %v", spec.Name, ev, before, err)
			}
			visited[m.State()] = true
		default:
			var ite *fsm.InvalidTransitionError
			if !errors.As(err, &ite) {
				t.Fatalf("%s: illegal %v from %v returned %T (%v)", spec.Name, ev, before, err, err)
			}
			if m.State() != before {
				t.Fatalf("%s: illegal %v mutated state %v -> %v", spec.Name, ev, before, m.State())
			}
			if got := r.counters.Get("TRANSITIONS_INVALID"); got != invBefore+1 {
				t.Fatalf("%s: illegal %v from %v charged %d invalid transitions, want 1",
					spec.Name, ev, before, got-invBefore)
			}
		}
	}
}

func TestLifecyclePropertySeeds(t *testing.T) {
	visitedDAG := map[DAGStatus]bool{}
	visitedVertex := map[vState]bool{}
	visitedTask := map[tState]bool{}
	visitedAttempt := map[aState]bool{}

	for seed := int64(0); seed < propSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))

		r := propRun()
		driveMachine(t, rng, r, dagLifecycle, r.lc,
			func(dEvent) any { return nil }, visitedDAG, propSteps)

		r = propRun()
		vs := newVertexState(r, &dag.Vertex{Name: "pv", Parallelism: 1}, 0)
		driveMachine(t, rng, r, vertexLifecycle, vs.lc,
			func(vEvent) any { return nil }, visitedVertex, propSteps)

		r = propRun()
		vs = newVertexState(r, &dag.Vertex{Name: "pv", Parallelism: 1}, 0)
		ts := newTaskState(r, vs, 0)
		driveMachine(t, rng, r, taskLifecycle, ts.lc,
			func(tEvent) any { return nil }, visitedTask, propSteps)

		r = propRun()
		vs = newVertexState(r, &dag.Vertex{Name: "pv", Parallelism: 1}, 0)
		ts = newTaskState(r, vs, 0)
		at := newAttemptState(r, ts, rng.Intn(2) == 0)
		driveMachine(t, rng, r, attemptLifecycle, at.lc,
			func(e aEvent) any {
				// A_DONE's selector classifies a randomized outcome; the
				// other events carry no payload.
				if e != aEvDone {
					return nil
				}
				return &attemptDone{
					failed:          rng.Intn(2) == 0,
					containerKilled: rng.Intn(4) == 0,
					inputError:      rng.Intn(4) == 0,
					nodeDead:        rng.Intn(4) == 0,
					lostRace:        rng.Intn(4) == 0,
				}
			}, visitedAttempt, propSteps)

		// Every journaled TRANSITION_INVALID matches the counter (the last
		// harness only — each harness is checked step-by-step above).
		if got, want := countInvalidJournal(r), int(r.counters.Get("TRANSITIONS_INVALID")); got != want {
			t.Fatalf("seed %d: journal has %d TRANSITION_INVALID events, counter says %d", seed, got, want)
		}
	}

	// Reachability: the spec's own BFS plus empirical coverage — across
	// the seeds, every declared state of every machine was visited.
	checkCoverage := func(name string, declared, visited int) {
		t.Helper()
		if visited != declared {
			t.Fatalf("%s: seeds visited %d of %d declared states", name, visited, declared)
		}
	}
	if err := dagLifecycle.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := vertexLifecycle.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := taskLifecycle.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := attemptLifecycle.Validate(); err != nil {
		t.Fatal(err)
	}
	checkCoverage("dag", len(dagLifecycle.States()), len(visitedDAG))
	checkCoverage("vertex", len(vertexLifecycle.States()), len(visitedVertex))
	checkCoverage("task", len(taskLifecycle.States()), len(visitedTask))
	checkCoverage("attempt", len(attemptLifecycle.States()), len(visitedAttempt))
}

// TestLifecycleTableDumps pins the dump entry point cmd/tez-fsm uses and
// the String() names the diagrams are labelled with.
func TestLifecycleTableDumps(t *testing.T) {
	for _, format := range []string{"mermaid", "dot"} {
		tables, err := LifecycleTables(format)
		if err != nil {
			t.Fatal(err)
		}
		if len(tables) != 4 {
			t.Fatalf("%s: %d tables, want 4", format, len(tables))
		}
		order := []string{"dag", "vertex", "task", "attempt"}
		for i, tb := range tables {
			if tb.Machine != order[i] {
				t.Fatalf("%s: table %d is %q, want %q", format, i, tb.Machine, order[i])
			}
			if tb.Text == "" {
				t.Fatalf("%s: empty %s table", format, tb.Machine)
			}
		}
	}
	if _, err := LifecycleTables("svg"); err == nil {
		t.Fatal("unknown format accepted")
	}
	// The String() names used in diagrams, errors and journal Info.
	for _, pair := range []struct{ got, want string }{
		{vRunning.String(), "RUNNING"},
		{tScheduled.String(), "SCHEDULED"},
		{aKilled.String(), "KILLED"},
		{vState(99).String(), "vState(99)"},
		{fmt.Sprint(aEvDone), "A_DONE"},
	} {
		if pair.got != pair.want {
			t.Fatalf("String() = %q, want %q", pair.got, pair.want)
		}
	}
}

// Dispatcher tests: the backlog gauge reads what queued behind a stalled
// dispatcher, and a run and a session each hold exactly one goroutine of
// their own.
package am

import (
	"errors"
	gort "runtime"
	"strings"
	"testing"
	"time"

	"tez/internal/plugin"
	"tez/internal/runtime"
)

// stallVM holds the dispatcher inside OnVertexStarted until released, then
// schedules every task.
type stallVM struct{ ImmediateStartVertexManager }

var stallEntered, stallRelease chan struct{}

func (m *stallVM) OnVertexStarted() {
	stallEntered <- struct{}{}
	<-stallRelease
	m.ImmediateStartVertexManager.OnVertexStarted()
}

// TestBacklogGaugeSeesStalledDispatcher: 64 messages queued while the
// dispatcher is stuck in a vertex manager must show in
// AM_MAILBOX_BACKLOG_MAX once it drains them.
func TestBacklogGaugeSeesStalledDispatcher(t *testing.T) {
	RegisterVertexManager("amtest.stall", func() VertexManager { return &stallVM{} })
	stallEntered = make(chan struct{}, 1)
	stallRelease = make(chan struct{})

	plat := newTestPlatform(2)
	defer plat.Stop()
	sess := NewSession(plat, Config{Name: "backlog"})
	defer sess.Close()
	d := oneVertexDAG("stall", "amdl.sleep", 2)
	d.Vertex("work").Manager = plugin.Desc("amtest.stall", nil)
	h, err := sess.Submit(d)
	if err != nil {
		t.Fatal(err)
	}
	<-stallEntered
	const queued = 64
	for i := 0; i < queued; i++ {
		h.run.mb.Put(msgParQuery{name: "work", reply: make(chan int, 1)})
	}
	close(stallRelease)

	res := h.Wait()
	if res.Status != DAGSucceeded {
		t.Fatalf("status %v (%v)", res.Status, res.Err)
	}
	if got := res.Counters.Get("AM_MAILBOX_BACKLOG_MAX"); got < queued {
		t.Fatalf("AM_MAILBOX_BACKLOG_MAX = %d, want >= %d", got, queued)
	}
}

// parkedProc signals that it runs, then parks until its attempt is killed.
type parkedProc struct{ stop <-chan struct{} }

var parkedRunning = make(chan struct{}, 1)

func (p *parkedProc) Initialize(ctx *runtime.Context) error { p.stop = ctx.Stop; return nil }
func (p *parkedProc) Run(map[string]runtime.Input, map[string]runtime.Output) error {
	parkedRunning <- struct{}{}
	<-p.stop
	return errors.New("amtest.parked: killed")
}
func (p *parkedProc) Close() error { return nil }

// TestOneGoroutinePerRunAndSession: a running DAG with a deadline holds one
// goroutine started by its run (the dispatcher, whose select owns the tick
// and the deadline) and its session one (the event loop, which also reaps
// idle containers).
func TestOneGoroutinePerRunAndSession(t *testing.T) {
	runtime.RegisterProcessor("amtest.parked", func() runtime.Processor { return &parkedProc{} })
	plat := newTestPlatform(2)
	defer plat.Stop()
	sess := NewSession(plat, Config{Name: "goroutines"})
	defer sess.Close()
	h, err := sess.Submit(oneVertexDAG("parked", "amtest.parked", 1), WithDeadline(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	<-parkedRunning

	buf := make([]byte, 1<<20)
	var dump string
	var runs, sessions int
	for deadline := time.Now().Add(5 * time.Second); ; {
		dump = string(buf[:gort.Stack(buf, true)])
		runs = strings.Count(dump, "created by tez/internal/am.(*dagRun).start")
		sessions = strings.Count(dump, "created by tez/internal/am.NewSession")
		if (runs == 1 && sessions == 1) || time.Now().After(deadline) {
			break
		}
		gort.Gosched() // an earlier test's run or session may still be exiting
	}
	if runs != 1 || sessions != 1 {
		t.Fatalf("goroutines created by the run: %d, by the session: %d; want 1 and 1\n%s", runs, sessions, dump)
	}
	h.Kill("test over")
	if res := h.Wait(); res.Status != DAGKilled {
		t.Fatalf("status %v (%v), want DAGKilled", res.Status, res.Err)
	}
}

package am

import (
	"sync"
	"testing"
	"time"

	"tez/internal/cluster"
	"tez/internal/mailbox"
	"tez/internal/platform"
)

// newTestScheduler builds a bare scheduler against a real RM, with a
// mailbox of its own standing in for the session's. With zero nodes the
// RM can never allocate, so pending-request counts are deterministic.
func newTestScheduler(t *testing.T, nodes int) (*platform.Platform, *cluster.Application, *scheduler) {
	t.Helper()
	plat := platform.New(platform.Fast(nodes))
	app := plat.RM.Submit("sched-test")
	cfg := Config{}.withDefaults()
	sched := newScheduler(cfg, app, newNodeHealth(cfg, nodes), mailbox.New[amMsg]())
	t.Cleanup(func() {
		app.Unregister()
		plat.Stop()
	})
	return plat, app, sched
}

// pump plays the session loop's part for a bare scheduler, on the test
// goroutine, until got yields a container: RM grants go to onAllocated
// (stop notices stay undelivered), launch reports to onLaunched, and the
// assignments they queue are delivered after each.
func pump(t *testing.T, app *cluster.Application, sched *scheduler, got <-chan *pooledContainer) *pooledContainer {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		sched.deliver()
		select {
		case pc := <-got:
			return pc
		case <-app.Events().Ready():
			evs, _ := app.Events().Drain(nil)
			for _, ev := range evs {
				if e, ok := ev.(cluster.AllocatedEvent); ok {
					sched.onAllocated(e.Container, e.Request)
				}
			}
		case <-sched.mb.Ready():
			msgs, _ := sched.mb.Drain(nil)
			for _, m := range msgs {
				if l, ok := m.(msgLaunched); ok {
					sched.onLaunched(l.pc, l.req, l.err)
				}
			}
		case <-timeout:
			t.Fatal("no container assigned")
		}
	}
}

// Regression: cancel racing ahead of submit must not leak an RM request.
// The old submit never looked at req.cancelled, so a request cancelled
// before submission was issued to the RM and never withdrawn.
func TestSchedulerCancelBeforeSubmitLeavesNoRequest(t *testing.T) {
	_, app, sched := newTestScheduler(t, 0)

	req := &taskRequest{assign: func(pc *pooledContainer) { t.Error("assign fired for cancelled request") }}
	sched.cancel(req)
	sched.submit(req)
	if n := app.PendingRequests(); n != 0 {
		t.Fatalf("cancelled-then-submitted request leaked: %d pending at RM", n)
	}
}

// Regression: a container-launch failure (node died between allocation
// and launch) must re-submit the task request rather than strand it —
// the request was already removed from pending when launch failed.
func TestSchedulerLaunchFailureResubmitsRequest(t *testing.T) {
	plat, app, sched := newTestScheduler(t, 3)

	var once sync.Once
	sched.testHookPreLaunch = func(c *cluster.Container) {
		// Fail the first allocated container's node so its Launch errors.
		once.Do(func() { plat.FailNode(c.Node()) })
	}

	assigned := make(chan *pooledContainer, 1)
	sched.submit(&taskRequest{assign: func(pc *pooledContainer) { assigned <- pc }})
	sched.release(pump(t, app, sched, assigned), false)
}

// Regression: a container stopped under its task (here, its node failed)
// is not handed to the next request when released, even before the
// session has seen the stop notice. Handing it on made the chaos suite's
// node-crash row spend seconds cycling a task through a dead node's
// container: each attempt died at once, as a casualty that costs no
// attempt budget, until the notice happened to arrive while the container
// sat idle.
func TestSchedulerNeverReusesStoppedContainer(t *testing.T) {
	plat, app, sched := newTestScheduler(t, 2)
	assigned := make(chan *pooledContainer, 2)
	sched.submit(&taskRequest{assign: func(pc *pooledContainer) { assigned <- pc }})
	pc := pump(t, app, sched, assigned)
	node := pc.c.Node()
	plat.FailNode(node)
	// The retry prefers the dead node, as a task retried after its node's
	// loss does when its input hints name that node.
	sched.submit(&taskRequest{hosts: []cluster.NodeID{node}, assign: func(pc *pooledContainer) { assigned <- pc }})
	sched.release(pc, true)
	next := pump(t, app, sched, assigned)
	if next == pc || next.c.Node() == node {
		t.Fatalf("request handed container %d on failed node %s", next.c.ID, node)
	}
	sched.release(next, false)
}

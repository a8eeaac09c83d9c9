package am

import (
	"sync"
	"testing"
	"time"

	"tez/internal/cluster"
	"tez/internal/platform"
)

// newTestScheduler builds a scheduler against a real RM. With zero nodes
// the RM can never allocate, so pending-request counts are deterministic.
func newTestScheduler(t *testing.T, nodes int) (*platform.Platform, *cluster.Application, *scheduler) {
	t.Helper()
	plat := platform.New(platform.Fast(nodes))
	app := plat.RM.Submit("sched-test")
	cfg := Config{}.withDefaults()
	sched := newScheduler(cfg, app, newNodeHealth(cfg, nodes))
	t.Cleanup(func() {
		sched.close()
		app.Unregister()
		plat.Stop()
	})
	return plat, app, sched
}

// Regression: cancel racing ahead of submit must not leak an RM request.
// The old submit never looked at req.cancelled, so a request cancelled
// before (or during) submission was issued to the RM and never withdrawn.
func TestSchedulerCancelBeforeSubmitLeavesNoRequest(t *testing.T) {
	_, app, sched := newTestScheduler(t, 0)

	req := &taskRequest{assign: func(pc *pooledContainer) { t.Error("assign fired for cancelled request") }}
	sched.cancel(req)
	sched.submit(req)
	if n := app.PendingRequests(); n != 0 {
		t.Fatalf("cancelled-then-submitted request leaked: %d pending at RM", n)
	}
}

// Regression: cancel landing in submit's window between queueing the
// request and issuing it to the RM (deterministic via the pre-request
// hook). submit must notice and withdraw the request it then issues.
func TestSchedulerCancelDuringSubmitWithdrawsRequest(t *testing.T) {
	_, app, sched := newTestScheduler(t, 0)

	req := &taskRequest{assign: func(pc *pooledContainer) { t.Error("assign fired for cancelled request") }}
	sched.testHookPreRequest = func(r *taskRequest) { sched.cancel(r) }
	sched.submit(req)
	if n := app.PendingRequests(); n != 0 {
		t.Fatalf("request cancelled mid-submit leaked: %d pending at RM", n)
	}
	sched.mu.Lock()
	pending := sched.livePending
	sched.mu.Unlock()
	if pending != 0 {
		t.Fatalf("scheduler still tracks %d pending requests", pending)
	}
}

// Stress: concurrent submit/cancel pairs under the race detector. Every
// request is cancelled, so afterwards the RM must hold zero live requests.
func TestSchedulerSubmitCancelStress(t *testing.T) {
	_, app, sched := newTestScheduler(t, 0)

	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				req := &taskRequest{priority: w, assign: func(pc *pooledContainer) {}}
				done := make(chan struct{})
				go func() { sched.cancel(req); close(done) }()
				sched.submit(req)
				<-done
			}
		}(w)
	}
	wg.Wait()
	if n := app.PendingRequests(); n != 0 {
		t.Fatalf("%d container requests leaked at the RM", n)
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
	req := &taskRequest{assign: func(pc *pooledContainer) { assigned <- pc }}

	// Drain RM events into the scheduler, as the session event loop would.
	go func() {
		for {
			ev, ok := app.Events().Get()
			if !ok {
				return
			}
			if e, isAlloc := ev.(cluster.AllocatedEvent); isAlloc {
				sched.onAllocated(e.Container, e.Request)
			}
		}
	}()

	sched.submit(req)
	select {
	case pc := <-assigned:
		sched.release(pc, false)
	case <-time.After(5 * time.Second):
		t.Fatal("task request stranded after container-launch failure")
	}
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
	go func() {
		for {
			ev, ok := app.Events().Get()
			if !ok {
				return
			}
			// Only grants reach the scheduler: stop notices stay undelivered.
			if e, isAlloc := ev.(cluster.AllocatedEvent); isAlloc {
				sched.onAllocated(e.Container, e.Request)
			}
		}
	}()
	sched.submit(&taskRequest{assign: func(pc *pooledContainer) { assigned <- pc }})
	var pc *pooledContainer
	select {
	case pc = <-assigned:
	case <-time.After(5 * time.Second):
		t.Fatal("no container granted")
	}
	node := pc.c.Node()
	plat.FailNode(node)
	// The retry prefers the dead node, as a task retried after its node's
	// loss does when its input hints name that node.
	sched.submit(&taskRequest{hosts: []cluster.NodeID{node}, assign: func(pc *pooledContainer) { assigned <- pc }})
	sched.release(pc, true)
	select {
	case next := <-assigned:
		if next == pc || next.c.Node() == node {
			t.Fatalf("request handed container %d on failed node %s", next.c.ID, node)
		}
		sched.release(next, false)
	case <-time.After(5 * time.Second):
		t.Fatal("request never granted a live container")
	}
}

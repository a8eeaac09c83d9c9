package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

func testConfig() Config {
	return Config{
		Nodes:            4,
		NodesPerRack:     2,
		NodeResource:     Resource{MemoryMB: 4096, VCores: 4},
		ScheduleInterval: 200 * time.Microsecond,
	}
}

// waitEvent drains events until one matches pred or the deadline passes.
func waitEvent(t *testing.T, a *Application, d time.Duration, pred func(Event) bool) Event {
	t.Helper()
	deadline := time.After(d)
	got := make(chan Event, 1)
	go func() {
		for {
			e, ok := a.Events().Get()
			if !ok {
				return
			}
			if pred(e) {
				got <- e
				return
			}
		}
	}()
	select {
	case e := <-got:
		return e
	case <-deadline:
		t.Fatalf("timed out waiting for event")
		return nil
	}
}

func TestResourceArithmetic(t *testing.T) {
	a := Resource{MemoryMB: 1024, VCores: 2}
	b := Resource{MemoryMB: 512, VCores: 1}
	if got := a.Add(b); got != (Resource{1536, 3}) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Resource{512, 1}) {
		t.Fatalf("Sub = %v", got)
	}
	if !b.FitsIn(a) || a.FitsIn(b) {
		t.Fatal("FitsIn wrong")
	}
	if !(Resource{}).IsZero() || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestBasicAllocation(t *testing.T) {
	rm := New(testConfig())
	defer rm.Stop()
	app := rm.Submit("app")
	defer app.Unregister()
	req := &ContainerRequest{Resource: Resource{1024, 1}, Cookie: "t1"}
	app.Request(req)
	e := waitEvent(t, app, time.Second, func(e Event) bool { _, ok := e.(AllocatedEvent); return ok })
	ae := e.(AllocatedEvent)
	if ae.Request.Cookie != "t1" {
		t.Fatalf("cookie = %v", ae.Request.Cookie)
	}
	if got := app.Allocated(); got != (Resource{1024, 1}) {
		t.Fatalf("Allocated = %v", got)
	}
	if app.PendingRequests() != 0 {
		t.Fatal("request still pending after allocation")
	}
}

func TestNodeLocalAllocation(t *testing.T) {
	rm := New(testConfig())
	defer rm.Stop()
	app := rm.Submit("app")
	defer app.Unregister()
	want := rm.Nodes()[2]
	app.Request(&ContainerRequest{
		Resource: Resource{1024, 1}, Nodes: []NodeID{want}, RelaxLocality: true,
	})
	e := waitEvent(t, app, time.Second, func(e Event) bool { _, ok := e.(AllocatedEvent); return ok })
	c := e.(AllocatedEvent).Container
	if c.Node() != want {
		t.Fatalf("allocated on %s, want %s", c.Node(), want)
	}
	if c.Locality != LocalityNode {
		t.Fatalf("locality = %v", c.Locality)
	}
}

func TestDelaySchedulingRelaxesToRackThenAny(t *testing.T) {
	cfg := testConfig()
	cfg.NodeLocalityDelay = 1
	cfg.RackLocalityDelay = 1
	rm := New(cfg)
	defer rm.Stop()

	// Fill node-000 completely so a node-000 preference cannot be met.
	hog := rm.Submit("hog")
	defer hog.Unregister()
	hog.Request(&ContainerRequest{Resource: Resource{4096, 4}, Nodes: []NodeID{"node-000"}, RelaxLocality: true})
	waitEvent(t, hog, time.Second, func(e Event) bool { _, ok := e.(AllocatedEvent); return ok })

	app := rm.Submit("app")
	defer app.Unregister()
	app.Request(&ContainerRequest{Resource: Resource{1024, 1}, Nodes: []NodeID{"node-000"}, RelaxLocality: true})
	e := waitEvent(t, app, 2*time.Second, func(e Event) bool { _, ok := e.(AllocatedEvent); return ok })
	c := e.(AllocatedEvent).Container
	// node-001 shares rack-00 with node-000: expect rack locality.
	if c.Locality != LocalityRack {
		t.Fatalf("locality = %v on %s, want RACK_LOCAL", c.Locality, c.Node())
	}
	if rm.RackOf(c.Node()) != "rack-00" {
		t.Fatalf("allocated on rack %s", rm.RackOf(c.Node()))
	}
}

func TestStrictLocalityNeverRelaxes(t *testing.T) {
	cfg := testConfig()
	cfg.NodeLocalityDelay = 1
	rm := New(cfg)
	defer rm.Stop()
	hog := rm.Submit("hog")
	defer hog.Unregister()
	hog.Request(&ContainerRequest{Resource: Resource{4096, 4}, Nodes: []NodeID{"node-000"}, RelaxLocality: true})
	waitEvent(t, hog, time.Second, func(e Event) bool { _, ok := e.(AllocatedEvent); return ok })

	app := rm.Submit("app")
	defer app.Unregister()
	app.Request(&ContainerRequest{Resource: Resource{1024, 1}, Nodes: []NodeID{"node-000"}, RelaxLocality: false})
	time.Sleep(20 * time.Millisecond)
	if app.Allocated().MemoryMB != 0 {
		t.Fatal("strict-locality request was relaxed")
	}
	// Free the node: the strict request must now be satisfied there.
	hog.Unregister()
	e := waitEvent(t, app, 2*time.Second, func(e Event) bool { _, ok := e.(AllocatedEvent); return ok })
	if c := e.(AllocatedEvent).Container; c.Node() != "node-000" {
		t.Fatalf("allocated on %s", c.Node())
	}
}

func TestContainerExecAndReuse(t *testing.T) {
	cfg := testConfig()
	rm := New(cfg)
	defer rm.Stop()
	app := rm.Submit("app")
	defer app.Unregister()
	app.Request(&ContainerRequest{Resource: Resource{1024, 1}})
	e := waitEvent(t, app, time.Second, func(e Event) bool { _, ok := e.(AllocatedEvent); return ok })
	c := e.(AllocatedEvent).Container

	if err := c.Exec(func(<-chan struct{}) error { return nil }); !errors.Is(err, ErrContainerNotReady) {
		t.Fatalf("Exec before Launch: %v", err)
	}
	if err := c.Launch(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ran := false
		if err := c.Exec(func(<-chan struct{}) error { ran = true; return nil }); err != nil || !ran {
			t.Fatalf("Exec #%d: err=%v ran=%v", i, err, ran)
		}
	}
	if c.ExecCount() != 3 {
		t.Fatalf("ExecCount = %d", c.ExecCount())
	}
	app.Release(c)
	if err := c.Exec(func(<-chan struct{}) error { return nil }); err == nil {
		t.Fatal("Exec after release succeeded")
	}
	if app.HeldContainers() != 0 {
		t.Fatal("container still held after release")
	}
}

func TestExecReturnsTaskError(t *testing.T) {
	rm := New(testConfig())
	defer rm.Stop()
	app := rm.Submit("app")
	defer app.Unregister()
	app.Request(&ContainerRequest{Resource: Resource{1024, 1}})
	e := waitEvent(t, app, time.Second, func(e Event) bool { _, ok := e.(AllocatedEvent); return ok })
	c := e.(AllocatedEvent).Container
	if err := c.Launch(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := c.Exec(func(<-chan struct{}) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Exec error = %v", err)
	}
}

func TestNodeFailureKillsContainersAndNotifies(t *testing.T) {
	rm := New(testConfig())
	defer rm.Stop()
	app := rm.Submit("app")
	defer app.Unregister()
	app.Request(&ContainerRequest{Resource: Resource{1024, 1}, Nodes: []NodeID{"node-001"}, RelaxLocality: true})
	e := waitEvent(t, app, time.Second, func(e Event) bool { _, ok := e.(AllocatedEvent); return ok })
	c := e.(AllocatedEvent).Container
	if err := c.Launch(); err != nil {
		t.Fatal(err)
	}

	execDone := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		execDone <- c.Exec(func(stop <-chan struct{}) error {
			close(started)
			<-stop
			return nil
		})
	}()
	<-started
	rm.FailNode(c.Node())

	if err := <-execDone; !errors.Is(err, ErrContainerKilled) {
		t.Fatalf("Exec after node failure: %v", err)
	}
	waitEvent(t, app, time.Second, func(e Event) bool {
		se, ok := e.(ContainerStoppedEvent)
		return ok && se.Reason == StopNodeLost && se.ContainerID == c.ID
	})
	waitEvent(t, app, time.Second, func(e Event) bool {
		ne, ok := e.(NodeFailedEvent)
		return ok && ne.Node == c.Node()
	})
	if app.HeldContainers() != 0 {
		t.Fatal("container still accounted after node loss")
	}
}

// allocateOne grants app one container on node-001.
func allocateOne(t *testing.T, app *Application) *Container {
	t.Helper()
	app.Request(&ContainerRequest{Resource: Resource{1024, 1}, Nodes: []NodeID{"node-001"}, RelaxLocality: true})
	e := waitEvent(t, app, time.Second, func(e Event) bool { _, ok := e.(AllocatedEvent); return ok })
	return e.(AllocatedEvent).Container
}

// Regression: a node failure that cuts a launch short fails the launch,
// so its owner re-requests instead of handing a dead container to a task.
func TestNodeFailureInterruptsLaunch(t *testing.T) {
	cfg := testConfig()
	cfg.ContainerLaunchOverhead = time.Hour
	rm := New(cfg)
	defer rm.Stop()
	app := rm.Submit("app")
	defer app.Unregister()
	c := allocateOne(t, app)

	launched := make(chan error, 1)
	go func() { launched <- c.Launch() }()
	for begun := false; !begun; runtime.Gosched() {
		c.mu.Lock()
		begun = c.launched
		c.mu.Unlock()
	}
	rm.FailNode(c.Node())
	select {
	case err := <-launched:
		if !errors.Is(err, ErrContainerKilled) {
			t.Fatalf("Launch cut short by a node failure: %v, want ErrContainerKilled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Launch still paying its hour-long overhead after the node failed")
	}
}

// Regression: Exec on a container stopped between Launch and Exec is a
// casualty (ErrContainerKilled), not a failure of the work it never ran.
func TestExecOnStoppedContainerIsKilled(t *testing.T) {
	rm := New(testConfig())
	defer rm.Stop()
	app := rm.Submit("app")
	defer app.Unregister()
	c := allocateOne(t, app)
	if err := c.Launch(); err != nil {
		t.Fatal(err)
	}
	rm.FailNode(c.Node())
	ran := false
	if err := c.Exec(func(<-chan struct{}) error { ran = true; return nil }); !errors.Is(err, ErrContainerKilled) || ran {
		t.Fatalf("Exec on a stopped container: err=%v ran=%v, want ErrContainerKilled", err, ran)
	}
}

func TestCancelRequest(t *testing.T) {
	cfg := testConfig()
	rm := New(cfg)
	defer rm.Stop()
	hog := rm.Submit("hog")
	defer hog.Unregister()
	// Consume the whole cluster so new requests stay pending.
	for i := 0; i < 4; i++ {
		hog.Request(&ContainerRequest{Resource: Resource{4096, 4}})
	}
	deadline := time.Now().Add(time.Second)
	for hog.Allocated().MemoryMB < 4*4096 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	app := rm.Submit("app")
	defer app.Unregister()
	req := &ContainerRequest{Resource: Resource{1024, 1}}
	app.Request(req)
	app.Cancel(req)
	// A request cancelled before it is requested is never queued.
	early := &ContainerRequest{Resource: Resource{1024, 1}}
	app.Cancel(early)
	app.Request(early)
	hog.Unregister()
	time.Sleep(10 * time.Millisecond)
	if app.Allocated().MemoryMB != 0 {
		t.Fatal("cancelled request was allocated")
	}
	if app.PendingRequests() != 0 {
		t.Fatal("cancelled request still counted as pending")
	}
}

func TestFairnessAcrossApps(t *testing.T) {
	cfg := testConfig() // 4 nodes * 4096MB = 16384MB
	rm := New(cfg)
	defer rm.Stop()
	a := rm.Submit("a")
	defer a.Unregister()
	b := rm.Submit("b")
	defer b.Unregister()
	for i := 0; i < 16; i++ {
		a.Request(&ContainerRequest{Resource: Resource{1024, 1}})
		b.Request(&ContainerRequest{Resource: Resource{1024, 1}})
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if rm.UsedResources().MemoryMB >= 16384 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	am, bm := a.Allocated().MemoryMB, b.Allocated().MemoryMB
	if am+bm != 16384 {
		t.Fatalf("cluster not fully allocated: a=%d b=%d", am, bm)
	}
	if am != bm {
		t.Fatalf("unfair split: a=%d b=%d", am, bm)
	}
}

func TestFairPreemption(t *testing.T) {
	cfg := testConfig()
	cfg.FairPreemption = true
	cfg.PreemptionInterval = time.Millisecond
	rm := New(cfg)
	defer rm.Stop()

	hog := rm.Submit("hog")
	defer hog.Unregister()
	for i := 0; i < 4; i++ {
		hog.Request(&ContainerRequest{Resource: Resource{4096, 4}})
	}
	deadline := time.Now().Add(time.Second)
	for hog.Allocated().MemoryMB < 16384 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	late := rm.Submit("late")
	defer late.Unregister()
	late.Request(&ContainerRequest{Resource: Resource{4096, 4}})

	waitEvent(t, hog, 2*time.Second, func(e Event) bool {
		se, ok := e.(ContainerStoppedEvent)
		return ok && se.Reason == StopPreempted
	})
	waitEvent(t, late, 2*time.Second, func(e Event) bool { _, ok := e.(AllocatedEvent); return ok })
}

func TestUnregisterReleasesEverything(t *testing.T) {
	rm := New(testConfig())
	defer rm.Stop()
	app := rm.Submit("app")
	for i := 0; i < 3; i++ {
		app.Request(&ContainerRequest{Resource: Resource{1024, 1}})
	}
	deadline := time.Now().Add(time.Second)
	for app.Allocated().MemoryMB < 3*1024 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	app.Unregister()
	if got := rm.UsedResources(); !got.IsZero() {
		t.Fatalf("resources still used after unregister: %v", got)
	}
	app.Unregister() // idempotent
}

func TestAllocationNeverExceedsNodeCapacity(t *testing.T) {
	cfg := testConfig()
	rm := New(cfg)
	defer rm.Stop()
	var apps []*Application
	for i := 0; i < 5; i++ {
		a := rm.Submit(fmt.Sprintf("app-%d", i))
		apps = append(apps, a)
		for j := 0; j < 10; j++ {
			a.Request(&ContainerRequest{Resource: Resource{768, 1}})
		}
	}
	defer func() {
		for _, a := range apps {
			a.Unregister()
		}
	}()
	time.Sleep(30 * time.Millisecond)
	used := rm.UsedResources()
	total := rm.TotalResources()
	if used.MemoryMB > total.MemoryMB || used.VCores > total.VCores {
		t.Fatalf("overallocation: used %v of %v", used, total)
	}
}

func TestLaunchOverheadCharged(t *testing.T) {
	cfg := testConfig()
	cfg.ContainerLaunchOverhead = 20 * time.Millisecond
	cfg.WarmupPenalty = 10 * time.Millisecond
	rm := New(cfg)
	defer rm.Stop()
	app := rm.Submit("app")
	defer app.Unregister()
	app.Request(&ContainerRequest{Resource: Resource{1024, 1}})
	e := waitEvent(t, app, time.Second, func(e Event) bool { _, ok := e.(AllocatedEvent); return ok })
	c := e.(AllocatedEvent).Container

	start := time.Now()
	if err := c.Launch(); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec(func(<-chan struct{}) error { return nil }); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)
	if cold < 30*time.Millisecond {
		t.Fatalf("cold start took %v, want >= 30ms", cold)
	}
	start = time.Now()
	if err := c.Exec(func(<-chan struct{}) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if warm := time.Since(start); warm > 5*time.Millisecond {
		t.Fatalf("warm exec took %v, want fast", warm)
	}
}

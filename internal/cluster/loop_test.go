// Ownership tests: the RM is one goroutine, and every call made after
// Stop returns, having run at most once.
package cluster

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// clusterGoroutines counts the live goroutines this package created, by
// creating function.
func clusterGoroutines() (map[string]int, string) {
	buf := make([]byte, 1<<20)
	dump := string(buf[:runtime.Stack(buf, true)])
	const prefix = "\ncreated by tez/internal/cluster."
	by := make(map[string]int)
	for _, g := range strings.Split(dump, "\n\n") {
		i := strings.Index(g, prefix)
		if i < 0 {
			continue
		}
		creator := g[i+len(prefix):]
		if j := strings.IndexAny(creator, " \n"); j >= 0 {
			creator = creator[:j]
		}
		by[creator]++
	}
	return by, dump
}

// expectGoroutines waits for the package's goroutines to be exactly want:
// an earlier test's goroutines may still be exiting.
func expectGoroutines(t *testing.T, want map[string]int) {
	t.Helper()
	var by map[string]int
	var dump string
	for deadline := time.Now().Add(5 * time.Second); ; {
		by, dump = clusterGoroutines()
		if fmt.Sprint(by) == fmt.Sprint(want) || time.Now().After(deadline) {
			break
		}
		runtime.Gosched()
	}
	if fmt.Sprint(by) != fmt.Sprint(want) {
		t.Fatalf("goroutines by creator: %v, want %v\n%s", by, want, dump)
	}
}

// TestOneGoroutinePerRM: New starts the loop and nothing else, the calls
// that change cluster state run on it without starting a goroutine, and
// Stop ends it.
func TestOneGoroutinePerRM(t *testing.T) {
	rm := New(testConfig())
	defer rm.Stop()
	expectGoroutines(t, map[string]int{"New": 1})

	app := rm.Submit("app")
	for i := 0; i < 2; i++ {
		app.Request(&ContainerRequest{Resource: Resource{1024, 1}, Nodes: []NodeID{"node-000"}, RelaxLocality: true})
	}
	rm.ScheduleNow()
	if n := app.HeldContainers(); n != 2 {
		t.Fatalf("held %d containers, want 2", n)
	}
	rm.FailNode("node-000")
	rm.RestoreNode("node-000")
	app.Unregister()
	expectGoroutines(t, map[string]int{"New": 1})

	rm.Stop()
	expectGoroutines(t, map[string]int{})
}

// TestCallsAfterStopReturn: every call made after Stop returns, queries
// report zero values, Release still kills the container's work and
// Unregister still closes the event mailbox. Calls racing Stop run at
// most once.
func TestCallsAfterStopReturn(t *testing.T) {
	cfg := testConfig()
	cfg.ScheduleInterval = time.Hour
	rm := New(cfg)
	app := rm.Submit("app")
	app.Request(&ContainerRequest{Resource: Resource{1024, 1}})
	rm.ScheduleNow()
	ev, ok := app.Events().TryGet()
	if !ok {
		t.Fatal("no allocation before Stop")
	}
	c := ev.(AllocatedEvent).Container
	rm.Stop()

	done := make(chan struct{})
	go func() {
		defer close(done)
		rm.Stop()
		if len(rm.Nodes()) != 4 || rm.RackOf("node-000") != "rack-00" || rm.Config().Nodes != 4 {
			t.Error("immutable cluster facts changed after Stop")
		}
		if !rm.TotalResources().IsZero() || !rm.UsedResources().IsZero() || len(rm.AllocatedByApp()) != 0 {
			t.Error("a query after Stop reported loop state")
		}
		if alloc, quota := rm.TenantUsage("t"); alloc != 0 || quota != 0 {
			t.Error("TenantUsage after Stop reported loop state")
		}
		rm.SetTenant("t", 2, 1024)
		late := rm.SubmitTenant("late", "t")
		req := &ContainerRequest{Resource: Resource{1024, 1}}
		late.Request(req)
		late.Cancel(req)
		rm.FailNode("node-000")
		rm.DecommissionNode("node-001")
		rm.RestoreNode("node-000")
		rm.ScheduleNow()
		if late.PendingRequests() != 0 || !late.Allocated().IsZero() || late.HeldContainers() != 0 {
			t.Error("an application query after Stop reported loop state")
		}
		late.Unregister()
		app.Request(&ContainerRequest{Resource: Resource{1024, 1}})
		app.Release(c)
		app.Release(c)
		app.Unregister()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a call after Stop hung")
	}
	select {
	case <-c.Killed():
	default:
		t.Fatal("Release after Stop left the container running")
	}
	if _, open := app.Events().Drain(nil); open {
		t.Fatal("Unregister after Stop left the event mailbox open")
	}

	for round := 0; round < 20; round++ {
		rm := New(cfg)
		var posted, called [8]int
		var wg sync.WaitGroup
		for i := range posted {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rm.post(func() { posted[i]++ })
				rm.call(func() { called[i]++ })
			}()
		}
		rm.Stop()
		wg.Wait()
		for i := range posted {
			if posted[i] > 1 || called[i] > 1 {
				t.Fatalf("round %d: a call racing Stop ran %d+%d times", round, posted[i], called[i])
			}
		}
		ranAfter := false
		rm.call(func() { ranAfter = true })
		if ranAfter {
			t.Fatal("a call made after Stop ran")
		}
	}
}

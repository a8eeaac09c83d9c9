package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// onLoop runs fn on rm's loop and waits for it: the way a test reads or
// drives loop-owned state.
func onLoop(rm *ResourceManager, fn func()) {
	done := make(chan struct{})
	rm.post(func() { fn(); close(done) })
	<-done
}

// checkMirrors asserts the scheduler's O(1) accounting mirrors against the
// ground truth recomputed on the loop from every node's containers:
// usedTotal is the sum of every container held, capTotal is the live
// capacity, each node's schedAvail equals capacity minus its containers, a
// live node sits at its shard index and a down one holds nothing, no node
// is overcommitted, and the apps hold exactly the nodes' containers.
func checkMirrors(t *testing.T, rm *ResourceManager) {
	t.Helper()
	onLoop(rm, func() {
		var used, capT Resource
		for _, n := range rm.nodeList {
			var nu Resource
			for _, c := range n.containers {
				nu = nu.Add(c.Resource)
			}
			used = used.Add(nu)
			if avail := n.capacity.Sub(nu); n.schedAvail != avail {
				t.Errorf("node %s: schedAvail %v, truth %v", n.ID, n.schedAvail, avail)
			}
			if n.shard != nil {
				capT = capT.Add(n.capacity)
				if n.shard.nodes[n.shardIdx] != n {
					t.Errorf("node %s: shardIdx %d does not point back at the node", n.ID, n.shardIdx)
				}
			} else if len(n.containers) > 0 {
				t.Errorf("node %s: down but holds %d containers", n.ID, len(n.containers))
			}
			if !nu.FitsIn(n.capacity) {
				t.Errorf("node %s overcommitted: used %v > capacity %v", n.ID, nu, n.capacity)
			}
		}
		held := 0
		for _, a := range rm.apps {
			for id, c := range a.containers {
				held++
				if c.node.containers[id] != c {
					t.Errorf("app %s holds container %d that is not on %s", a.Name, id, c.node.ID)
				}
			}
		}
		onNodes := 0
		for _, n := range rm.nodeList {
			onNodes += len(n.containers)
		}
		if held != onNodes {
			t.Errorf("apps hold %d containers, nodes %d", held, onNodes)
		}
		if rm.usedTotal != used {
			t.Errorf("usedTotal mirror %v, recomputed %v", rm.usedTotal, used)
		}
		if rm.capTotal != capT {
			t.Errorf("capTotal mirror %v, recomputed %v", rm.capTotal, capT)
		}
	})
}

// requestStates reads each request's lifecycle state on the loop.
func requestStates(rm *ResourceManager, reqs []*ContainerRequest) []reqState {
	out := make([]reqState, len(reqs))
	onLoop(rm, func() {
		for i, req := range reqs {
			out[i] = req.state
		}
	})
	return out
}

// allocationsOf drains the apps' event mailboxes and counts the
// AllocatedEvents delivered per request.
func allocationsOf(apps ...*Application) map[*ContainerRequest]int {
	allocated := make(map[*ContainerRequest]int)
	for _, a := range apps {
		for ev, ok := a.Events().TryGet(); ok; ev, ok = a.Events().TryGet() {
			if e, isAlloc := ev.(AllocatedEvent); isAlloc {
				allocated[e.Request]++
			}
		}
	}
	return allocated
}

// Regression for the cancel/allocate race: Cancel used to flip a flag the
// scheduling pass never re-checked, so a request could be both withdrawn
// and granted. Settling both on the loop makes the two terminal
// transitions mutually exclusive; this hammers it with cancels racing
// requests and ScheduleNow.
func TestCancelRaceWithSchedulingPasses(t *testing.T) {
	rm := New(Config{
		Nodes:            4,
		NodesPerRack:     2,
		NodeResource:     Resource{MemoryMB: 1 << 20, VCores: 1 << 20},
		ScheduleInterval: time.Hour, // driven by ScheduleNow below
	})
	defer rm.Stop()
	app := rm.Submit("race")
	defer app.Unregister()

	const workers, rounds = 8, 200
	stopSched := make(chan struct{})
	var schedWG sync.WaitGroup
	schedWG.Add(1)
	go func() {
		defer schedWG.Done()
		for {
			select {
			case <-stopSched:
				return
			default:
				rm.ScheduleNow()
			}
		}
	}()

	var mu sync.Mutex
	all := make([]*ContainerRequest, 0, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				req := &ContainerRequest{
					Resource:      Resource{MemoryMB: 64, VCores: 1},
					RelaxLocality: true,
				}
				mu.Lock()
				all = append(all, req)
				mu.Unlock()
				done := make(chan struct{})
				go func() { app.Cancel(req); close(done) }()
				app.Request(req)
				<-done
			}
		}()
	}
	wg.Wait()
	// Let the scheduler settle every surviving request, then stop it.
	for i := 0; i < 50; i++ {
		rm.ScheduleNow()
	}
	close(stopSched)
	schedWG.Wait()
	rm.ScheduleNow()

	// Count what the RM actually delivered.
	allocated := allocationsOf(app)
	for i, st := range requestStates(rm, all) {
		req := all[i]
		switch st {
		case reqAllocated:
			if allocated[req] != 1 {
				t.Fatalf("allocated request delivered %d times", allocated[req])
			}
		case reqCancelled:
			if allocated[req] != 0 {
				t.Fatalf("request both cancelled and allocated")
			}
		default:
			t.Fatalf("request left in non-terminal state %d", st)
		}
	}
	if n := app.PendingRequests(); n != 0 {
		t.Fatalf("pending accounting drifted: %d left after all requests settled", n)
	}
	checkMirrors(t, rm)
}

// Regression for RestoreNode: it used to wipe the node's container map and
// usage without stopping the old containers or telling their owners —
// resources double-counted, apps holding dead handles. Fail a loaded node,
// restore it, and require the owner's accounting, the stop notifications,
// and the node's reusability to all line up.
func TestFailThenRestoreNode(t *testing.T) {
	rm := New(Config{
		Nodes:            2,
		NodesPerRack:     2,
		NodeResource:     Resource{MemoryMB: 4096, VCores: 4},
		ScheduleInterval: 200 * time.Microsecond,
	})
	defer rm.Stop()
	app := rm.Submit("restore")
	defer app.Unregister()

	for i := 0; i < 4; i++ {
		app.Request(&ContainerRequest{Resource: Resource{MemoryMB: 2048, VCores: 1}, RelaxLocality: true})
	}
	waitFor(t, "initial allocations", func() bool { return app.HeldContainers() == 4 })

	rm.FailNode("node-000")
	// The app must hear one ContainerStopped(StopNodeLost) per lost
	// container plus the NodeFailed notification, and its accounting must
	// shrink by exactly the lost containers.
	waitFor(t, "loss notifications", func() bool { return app.HeldContainers() == 2 })
	stopped, nodeFailed := 0, 0
	for {
		ev, ok := app.Events().TryGet()
		if !ok {
			break
		}
		switch e := ev.(type) {
		case ContainerStoppedEvent:
			if e.Node == "node-000" && e.Reason == StopNodeLost {
				stopped++
			}
		case NodeFailedEvent:
			if e.Node == "node-000" {
				nodeFailed++
			}
		}
	}
	if stopped != 2 || nodeFailed != 1 {
		t.Fatalf("got %d stop notifications, %d node-failed (want 2, 1)", stopped, nodeFailed)
	}
	if got := rm.UsedResources().MemoryMB; got != 4096 {
		t.Fatalf("used after node loss = %d MB, want 4096", got)
	}
	checkMirrors(t, rm)

	// Restore and refill: the node must be placeable again, with no
	// double-counted capacity from its previous life.
	rm.RestoreNode("node-000")
	rm.RestoreNode("node-000") // restoring a live node is a no-op
	if got := rm.TotalResources().MemoryMB; got != 8192 {
		t.Fatalf("capacity after restore = %d MB, want 8192", got)
	}
	for i := 0; i < 2; i++ {
		app.Request(&ContainerRequest{Resource: Resource{MemoryMB: 2048, VCores: 1}, RelaxLocality: true})
	}
	waitFor(t, "re-allocations on restored node", func() bool { return app.HeldContainers() == 4 })
	if got := rm.UsedResources().MemoryMB; got != 8192 {
		t.Fatalf("used after refill = %d MB, want 8192", got)
	}
	checkMirrors(t, rm)
}

// Randomized invariant stress: 50 seeds of interleaved request / cancel /
// fail / restore / schedule traffic. After every seed the accounting
// mirrors must match ground truth, no node may be overcommitted, and no
// request may be both cancelled and allocated.
func TestInvariantStressSeeds(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			rm := New(Config{
				Nodes:            8,
				NodesPerRack:     4,
				NodeResource:     Resource{MemoryMB: 8192, VCores: 64},
				ScheduleInterval: time.Hour, // explicit ScheduleNow only
			})
			defer rm.Stop()
			apps := []*Application{rm.Submit("a0"), rm.Submit("a1"), rm.Submit("a2")}
			var reqs []*ContainerRequest
			owner := make(map[*ContainerRequest]*Application)

			for op := 0; op < 300; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // request
					a := apps[rng.Intn(len(apps))]
					req := &ContainerRequest{
						Resource:      Resource{MemoryMB: (rng.Intn(8) + 1) * 256, VCores: 1},
						RelaxLocality: true,
						Priority:      rng.Intn(3),
					}
					if rng.Intn(2) == 0 {
						req.Nodes = []NodeID{NodeID(fmt.Sprintf("node-%03d", rng.Intn(8)))}
					}
					reqs = append(reqs, req)
					owner[req] = a
					a.Request(req)
				case 4, 5: // cancel a random outstanding request
					if len(reqs) > 0 {
						req := reqs[rng.Intn(len(reqs))]
						owner[req].Cancel(req)
					}
				case 6: // fail or restore a random node
					id := NodeID(fmt.Sprintf("node-%03d", rng.Intn(8)))
					if rng.Intn(2) == 0 {
						rm.FailNode(id)
					} else {
						rm.RestoreNode(id)
					}
				case 7: // release a random held container
					a := apps[rng.Intn(len(apps))]
					var c *Container
					onLoop(rm, func() {
						for _, held := range a.containers {
							c = held
							break
						}
					})
					if c != nil {
						a.Release(c)
					}
				default:
					rm.ScheduleNow()
				}
			}
			// Restore everything, drain, and verify.
			for i := 0; i < 8; i++ {
				rm.RestoreNode(NodeID(fmt.Sprintf("node-%03d", i)))
			}
			for i := 0; i < 20; i++ {
				rm.ScheduleNow()
			}
			allocated := allocationsOf(apps...)
			for i, st := range requestStates(rm, reqs) {
				req := reqs[i]
				if st == reqCancelled && allocated[req] != 0 {
					t.Fatalf("request both cancelled and allocated")
				}
				if allocated[req] > 1 {
					t.Fatalf("request allocated %d times", allocated[req])
				}
			}
			checkMirrors(t, rm)
			for _, a := range apps {
				a.Unregister()
			}
			if used := rm.UsedResources(); !used.IsZero() {
				t.Fatalf("resources leaked after unregister: %v", used)
			}
			checkMirrors(t, rm)
		})
	}
}

// The many-goroutine twin of TestInvariantStressSeeds: each app issues
// Request, Cancel and Release on its own goroutine, and reads its events
// there, while another goroutine fails and restores nodes and the
// heartbeat runs passes. No request may be both cancelled and allocated
// or granted twice, the mirrors must match ground truth, and Unregister
// must hand every resource back.
func TestInvariantStressConcurrent(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			rm := New(Config{
				Nodes:            8,
				NodesPerRack:     4,
				NodeResource:     Resource{MemoryMB: 8192, VCores: 64},
				ScheduleInterval: 100 * time.Microsecond,
			})
			defer rm.Stop()
			apps := []*Application{rm.Submit("a0"), rm.Submit("a1"), rm.Submit("a2")}
			reqs := make([][]*ContainerRequest, len(apps))
			allocated := make([]map[*ContainerRequest]int, len(apps))

			var wg sync.WaitGroup
			for i, a := range apps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed*10 + int64(i)))
					allocated[i] = make(map[*ContainerRequest]int)
					var held []*Container
					for op := 0; op < 200; op++ {
						for ev, ok := a.Events().TryGet(); ok; ev, ok = a.Events().TryGet() {
							if e, isAlloc := ev.(AllocatedEvent); isAlloc {
								allocated[i][e.Request]++
								held = append(held, e.Container)
							}
						}
						switch rng.Intn(10) {
						case 0, 1, 2, 3:
							req := &ContainerRequest{
								Resource:      Resource{MemoryMB: (rng.Intn(8) + 1) * 256, VCores: 1},
								RelaxLocality: true,
								Priority:      rng.Intn(3),
							}
							if rng.Intn(2) == 0 {
								req.Nodes = []NodeID{NodeID(fmt.Sprintf("node-%03d", rng.Intn(8)))}
							}
							reqs[i] = append(reqs[i], req)
							a.Request(req)
						case 4, 5:
							if len(reqs[i]) > 0 {
								a.Cancel(reqs[i][rng.Intn(len(reqs[i]))])
							}
						case 6, 7:
							if len(held) > 0 {
								k := rng.Intn(len(held))
								a.Release(held[k])
								held = append(held[:k], held[k+1:]...)
							}
						case 8:
							a.PendingRequests()
						default:
							a.HeldContainers()
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for op := 0; op < 100; op++ {
					id := NodeID(fmt.Sprintf("node-%03d", rng.Intn(8)))
					if rng.Intn(2) == 0 {
						rm.FailNode(id)
					} else {
						rm.RestoreNode(id)
					}
				}
			}()
			wg.Wait()

			for i := 0; i < 8; i++ {
				rm.RestoreNode(NodeID(fmt.Sprintf("node-%03d", i)))
			}
			rm.ScheduleNow()
			late := allocationsOf(apps...)
			for i := range apps {
				states := requestStates(rm, reqs[i])
				for k, req := range reqs[i] {
					n := allocated[i][req] + late[req]
					if states[k] == reqCancelled && n != 0 {
						t.Fatalf("request both cancelled and allocated")
					}
					if n > 1 {
						t.Fatalf("request allocated %d times", n)
					}
				}
			}
			checkMirrors(t, rm)
			for _, a := range apps {
				a.Unregister()
			}
			if used := rm.UsedResources(); !used.IsZero() {
				t.Fatalf("resources leaked after unregister: %v", used)
			}
			checkMirrors(t, rm)
		})
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

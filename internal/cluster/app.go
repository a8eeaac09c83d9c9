package cluster

import (
	"slices"
	"sync"
	"sync/atomic"

	"tez/internal/mailbox"
)

// ContainerRequest asks the RM for one container. Preferences follow the
// YARN model: preferred nodes, preferred racks, and whether locality may be
// relaxed. Cookie is returned with the allocation.
type ContainerRequest struct {
	Priority      int
	Resource      Resource
	Nodes         []NodeID
	Racks         []string
	RelaxLocality bool
	// Exclude lists nodes the request must not be placed on (AM-side
	// blacklisting). Exclusion is best-effort hard: if every fitting node
	// is excluded the request simply waits.
	Exclude []NodeID
	Cookie  any

	// state is the request lifecycle (see queues.go): staged → queued →
	// allocated | cancelled, with CAS transitions so cancel and allocate
	// are mutually exclusive.
	state atomic.Int32

	// Everything below is owned by the RM once the request is ingested
	// and is only touched under rm.mu.
	owner      *Application
	settled    bool // queuedLive accounting done (exactly-once)
	missedNode int  // scheduling opportunities missed (delay scheduling)
	missedRack int
}

// Application is an AM's handle onto the resource manager. All
// notifications arrive through Events().
type Application struct {
	ID   AppID
	Name string
	// Tenant is the scheduling group the app was submitted under ("" for
	// a private share). Immutable after SubmitTenant.
	Tenant string

	rm     *ResourceManager
	events *mailbox.Mailbox[Event]

	mu         sync.Mutex
	staged     []*ContainerRequest // new requests; RM drains in batch per pass
	containers map[ContainerID]*Container
	allocated  Resource
	finished   bool

	// sched is RM-owned scheduling state, guarded by rm.mu (not a.mu).
	sched appSched
}

// Events returns the mailbox carrying RM→AM notifications.
func (a *Application) Events() *mailbox.Mailbox[Event] { return a.events }

// Request enqueues container requests; the scheduler ingests the staged
// batch on its next heartbeat. Requests stay app-owned (a.mu) until then,
// so the caller never contends with a scheduling pass.
func (a *Application) Request(reqs ...*ContainerRequest) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.finished {
		return
	}
	a.staged = append(a.staged, reqs...)
}

// Cancel withdraws a pending request. Cancelling an already-satisfied or
// unknown request is a no-op. The CAS guarantees a request is never both
// cancelled and allocated: whichever transition wins, the other side
// observes it and backs off.
func (a *Application) Cancel(req *ContainerRequest) {
	if req.state.CompareAndSwap(reqStaged, reqCancelled) {
		return // dropped at ingestion
	}
	if req.state.CompareAndSwap(reqQueued, reqCancelled) {
		// RM-owned by now: settle the pending count eagerly so
		// PendingRequests reflects the cancellation immediately. The
		// bucket entry itself is pruned lazily by the next pass walk.
		a.rm.mu.Lock()
		a.rm.settleLocked(req)
		a.rm.mu.Unlock()
	}
	// Allocated or already cancelled: no-op.
}

// PendingRequests returns the number of outstanding (non-cancelled)
// container requests, staged plus queued. Both locks are held together
// (rm.mu → a.mu is the package lock order) so the snapshot is consistent
// with a concurrent ingest.
func (a *Application) PendingRequests() int {
	a.rm.mu.Lock()
	defer a.rm.mu.Unlock()
	a.mu.Lock()
	n := a.sched.queuedLive
	for _, r := range a.staged {
		if r.state.Load() == reqStaged {
			n++
		}
	}
	a.mu.Unlock()
	return n
}

// Allocated returns the application's currently held resources.
func (a *Application) Allocated() Resource {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.allocated
}

// HeldContainers returns the number of containers currently held.
func (a *Application) HeldContainers() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.containers)
}

// Release returns a container to the cluster. The container's work, if
// any, is killed.
func (a *Application) Release(c *Container) {
	a.rm.stopContainer(c, StopReleased, false)
}

// Unregister releases everything the application holds and stops event
// delivery. Call exactly once when the AM exits. One rm.mu critical
// section refuses further grants, withdraws every staged and queued
// request, detaches the held containers and takes the app out of the
// fairness order, so no grant or release racing the unregister can leave
// a container attached to it; the detached containers are stopped after.
func (a *Application) Unregister() {
	rm := a.rm
	rm.mu.Lock()
	a.mu.Lock()
	if a.finished {
		a.mu.Unlock()
		rm.mu.Unlock()
		return
	}
	a.finished = true
	for _, req := range a.staged {
		req.state.CompareAndSwap(reqStaged, reqCancelled)
	}
	a.staged = nil
	held := make([]*Container, 0, len(a.containers))
	for _, c := range a.containers {
		held = append(held, c)
	}
	clear(a.containers)
	a.allocated = Resource{}
	a.mu.Unlock()
	for _, q := range a.sched.buckets {
		for _, req := range q.reqs {
			if req.state.CompareAndSwap(reqQueued, reqCancelled) {
				rm.settleLocked(req)
			}
		}
	}
	a.sched.buckets, a.sched.prios = nil, nil
	rm.removeAppLocked(a)
	delete(rm.apps, a.ID)
	rm.appOrder = slices.DeleteFunc(rm.appOrder, func(id AppID) bool { return id == a.ID })
	rm.mu.Unlock()
	for _, c := range held {
		rm.stopContainerQuiet(c, StopReleased)
	}
	a.events.Close()
}

// removeContainer detaches a container from the app's accounting,
// reporting whether it was still attached.
func (a *Application) removeContainer(c *Container) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.containers[c.ID]; !ok {
		return false
	}
	delete(a.containers, c.ID)
	a.allocated = a.allocated.Sub(c.Resource)
	return true
}

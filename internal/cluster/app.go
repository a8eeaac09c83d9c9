package cluster

import (
	"slices"

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

	// Owned by the RM loop: the request's lifecycle (see queues.go), the
	// app that queued it, and its missed scheduling opportunities (delay
	// scheduling).
	state      reqState
	owner      *Application
	missedNode int
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

	// Owned by the RM loop.
	containers map[ContainerID]*Container
	allocated  Resource
	finished   bool
	sched      appSched
}

// Events returns the mailbox carrying RM→AM notifications.
func (a *Application) Events() *mailbox.Mailbox[Event] { return a.events }

// Request queues container requests and returns; the loop files them in
// the app's priority buckets before its next scheduling pass. A request
// already cancelled, or already requested, is ignored.
func (a *Application) Request(reqs ...*ContainerRequest) {
	reqs = slices.Clone(reqs)
	a.rm.post(func() {
		for _, req := range reqs {
			if a.finished || req.state != reqNew {
				continue
			}
			req.state, req.owner = reqQueued, a
			q := a.sched.bucket(req.Priority)
			q.reqs = append(q.reqs, req)
			a.sched.queuedLive++
		}
	})
}

// Cancel withdraws a pending request and returns. Cancelling an
// already-satisfied request is a no-op; a request cancelled before it
// reaches the loop is never queued. The loop settles Cancel and every
// grant one at a time, so a request is never both cancelled and
// allocated.
func (a *Application) Cancel(req *ContainerRequest) {
	a.rm.post(func() { withdraw(req) })
}

// PendingRequests returns the number of outstanding (non-cancelled)
// container requests.
func (a *Application) PendingRequests() (n int) {
	a.rm.call(func() { n = a.sched.queuedLive })
	return n
}

// Allocated returns the application's currently held resources.
func (a *Application) Allocated() (r Resource) {
	a.rm.call(func() { r = a.allocated })
	return r
}

// HeldContainers returns the number of containers currently held.
func (a *Application) HeldContainers() (n int) {
	a.rm.call(func() { n = len(a.containers) })
	return n
}

// Release returns a container to the cluster. The container's work, if
// any, is killed before Release returns; the loop takes the resources
// back after the calls posted before it.
func (a *Application) Release(c *Container) {
	if c.terminate() {
		a.rm.post(func() { a.rm.uncharge(c) })
	}
}

// Unregister releases everything the application holds and stops event
// delivery. Call exactly once when the AM exits. On the loop it refuses
// further grants, withdraws every queued request, stops the held
// containers and takes the app out of the fairness order.
func (a *Application) Unregister() {
	rm := a.rm
	rm.call(func() {
		if a.finished {
			return
		}
		a.finished = true
		for _, q := range a.sched.buckets {
			for _, req := range q.reqs {
				withdraw(req)
			}
		}
		a.sched.buckets, a.sched.prios = nil, nil
		rm.removeApp(a)
		delete(rm.apps, a.ID)
		for _, c := range a.containers {
			c.terminate()
			rm.unchargeNode(c.node, c)
		}
		clear(a.containers)
		a.allocated = Resource{}
	})
	a.events.Close()
}

// removeContainer detaches a container from the app's accounting,
// reporting whether it was still attached.
func (a *Application) removeContainer(c *Container) bool {
	if _, ok := a.containers[c.ID]; !ok {
		return false
	}
	delete(a.containers, c.ID)
	a.allocated = a.allocated.Sub(c.Resource)
	return true
}

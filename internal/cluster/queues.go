package cluster

import "time"

// RM-owned request queues and the incrementally-maintained fairness
// order. No scheduling pass sorts anything — at 100k outstanding requests
// a per-pass sort would be the control plane's floor — because both
// orders are maintained as requests and allocations change:
//
//   - per app, requests live in per-priority FIFO buckets (by Priority,
//     then arrival order);
//   - apps live in a two-level tenant→app hierarchy: tenant groups are
//     sorted by weighted allocation (allocMB/weight asc, creation seq
//     asc) and each group's apps by (allocated memory asc, submission
//     seq asc). Positions are repaired by local bubbles whenever an
//     allocation changes. An app submitted without a tenant gets a
//     private singleton group of weight 1, so with no tenants the order
//     is a flat most-starved-first order over apps.
//
// Request lifecycle is an atomic state machine:
//
//	staged --(ingest)--> queued --(grant)--> allocated
//	   \                    \
//	    +----(cancel)--------+--> cancelled
//
// Staged requests belong to the application (a.mu); queued requests
// belong to the RM (rm.mu). Cancel uses CAS so that a request can win
// exactly one terminal transition — cancelled and allocated are mutually
// exclusive by construction: a request concurrently cancelled is never
// allocated. missedNode/missedRack are only ever touched under rm.mu after
// ingestion, so place() and the app never touch one request's fields
// under different locks.
const (
	reqStaged int32 = iota
	reqQueued
	reqAllocated
	reqCancelled
)

// tenantGroup is one tenant's scheduling state, guarded by rm.mu. Named
// groups are created by SetTenant or on the first SubmitTenant for the
// tenant and persist (with their weight/quota) for the RM's lifetime;
// untenanted apps get anonymous singleton groups that die with the app.
type tenantGroup struct {
	name    string // "" for a private per-app singleton group
	weight  int    // fair-share weight, ≥ 1
	quotaMB int    // hard cap on held memory; 0 = unlimited
	seq     int    // creation order; fairness tiebreak
	pos     int    // index in rm.schedTenants
	allocMB int    // sum of member apps' held memory
	apps    []*Application

	// starvedSince marks when the group was first observed starved (unmet
	// demand below its weighted share). Touched only by the RM loop
	// goroutine inside maybePreempt, never concurrently.
	starvedSince time.Time
}

// appSched is an application's scheduling state, owned by the RM and
// guarded by rm.mu.
type appSched struct {
	group      *tenantGroup
	seq        int // submission order; fairness tiebreak within the group
	pos        int // index in group.apps
	allocMB    int // mirror of a.allocated.MemoryMB for ordering
	queuedLive int // queued, non-cancelled, not yet granted
	buckets    map[int]*reqBucket
	prios      []int // sorted bucket keys
}

// reqBucket is one priority's FIFO. The pass walk compacts cancelled and
// granted entries in place, so no separate head cursor is needed.
type reqBucket struct {
	reqs []*ContainerRequest
}

// bucketLocked returns (creating if needed) the app's bucket for prio,
// keeping prios sorted. Caller holds rm.mu.
func (as *appSched) bucketLocked(prio int) *reqBucket {
	if q, ok := as.buckets[prio]; ok {
		return q
	}
	if as.buckets == nil {
		as.buckets = make(map[int]*reqBucket)
	}
	q := &reqBucket{}
	as.buckets[prio] = q
	i := len(as.prios)
	for i > 0 && as.prios[i-1] > prio {
		i--
	}
	as.prios = append(as.prios, 0)
	copy(as.prios[i+1:], as.prios[i:])
	as.prios[i] = prio
	return q
}

// settleLocked accounts exactly once for a request leaving the live
// queue (granted, cancelled, or dropped). Caller holds rm.mu.
func (rm *ResourceManager) settleLocked(req *ContainerRequest) {
	if req.settled || req.owner == nil {
		return
	}
	req.settled = true
	req.owner.sched.queuedLive--
}

// tenantLess is the cross-tenant fairness order: smallest weighted
// allocation (allocMB/weight, compared multiplicatively to stay in
// integers) first, creation order as the stable tiebreak. With all
// weights 1 this is the (allocMB, seq) order.
func tenantLess(a, b *tenantGroup) bool {
	wa, wb := a.allocMB*b.weight, b.allocMB*a.weight
	if wa != wb {
		return wa < wb
	}
	return a.seq < b.seq
}

// appLess is the within-group fairness order: least allocated first,
// submission order as the stable tiebreak.
func appLess(a, b *Application) bool {
	if a.sched.allocMB != b.sched.allocMB {
		return a.sched.allocMB < b.sched.allocMB
	}
	return a.sched.seq < b.sched.seq
}

// insertGroupLocked adds g to the tenant fairness order. Caller holds
// rm.mu.
func (rm *ResourceManager) insertGroupLocked(g *tenantGroup) {
	i := len(rm.schedTenants)
	for i > 0 && tenantLess(g, rm.schedTenants[i-1]) {
		i--
	}
	rm.schedTenants = append(rm.schedTenants, nil)
	copy(rm.schedTenants[i+1:], rm.schedTenants[i:])
	rm.schedTenants[i] = g
	for ; i < len(rm.schedTenants); i++ {
		rm.schedTenants[i].pos = i
	}
}

// removeGroupLocked drops g from the tenant fairness order. Caller holds
// rm.mu.
func (rm *ResourceManager) removeGroupLocked(g *tenantGroup) {
	i := g.pos
	if i >= len(rm.schedTenants) || rm.schedTenants[i] != g {
		return
	}
	copy(rm.schedTenants[i:], rm.schedTenants[i+1:])
	rm.schedTenants = rm.schedTenants[:len(rm.schedTenants)-1]
	for ; i < len(rm.schedTenants); i++ {
		rm.schedTenants[i].pos = i
	}
}

// groupOrderChangedLocked bubbles g back to its sorted position after its
// weighted-allocation key changed. Caller holds rm.mu.
func (rm *ResourceManager) groupOrderChangedLocked(g *tenantGroup) {
	i := g.pos
	if i >= len(rm.schedTenants) || rm.schedTenants[i] != g {
		return
	}
	for i > 0 && tenantLess(g, rm.schedTenants[i-1]) {
		rm.schedTenants[i] = rm.schedTenants[i-1]
		rm.schedTenants[i].pos = i
		i--
	}
	for i < len(rm.schedTenants)-1 && tenantLess(rm.schedTenants[i+1], g) {
		rm.schedTenants[i] = rm.schedTenants[i+1]
		rm.schedTenants[i].pos = i
		i++
	}
	rm.schedTenants[i] = g
	g.pos = i
}

// insertAppLocked adds a to group g's fairness order. Caller holds rm.mu.
func (rm *ResourceManager) insertAppLocked(g *tenantGroup, a *Application) {
	a.sched.group = g
	i := len(g.apps)
	for i > 0 && appLess(a, g.apps[i-1]) {
		i--
	}
	g.apps = append(g.apps, nil)
	copy(g.apps[i+1:], g.apps[i:])
	g.apps[i] = a
	for ; i < len(g.apps); i++ {
		g.apps[i].sched.pos = i
	}
}

// removeAppLocked drops a from its group, and the group itself from the
// tenant order if it was the app's private singleton. Caller holds rm.mu.
func (rm *ResourceManager) removeAppLocked(a *Application) {
	g := a.sched.group
	if g == nil {
		return
	}
	i := a.sched.pos
	if i < len(g.apps) && g.apps[i] == a {
		copy(g.apps[i:], g.apps[i+1:])
		g.apps = g.apps[:len(g.apps)-1]
		for ; i < len(g.apps); i++ {
			g.apps[i].sched.pos = i
		}
		g.allocMB -= a.sched.allocMB
		rm.groupOrderChangedLocked(g)
	}
	a.sched.group = nil
	if g.name == "" && len(g.apps) == 0 {
		rm.removeGroupLocked(g)
	}
}

// appAllocChangedLocked applies a memory delta to the app's fairness key
// and bubbles the app within its group and the group within the tenant
// order. Caller holds rm.mu.
func (rm *ResourceManager) appAllocChangedLocked(a *Application, deltaMB int) {
	a.sched.allocMB += deltaMB
	g := a.sched.group
	if g == nil {
		return
	}
	i := a.sched.pos
	if i < len(g.apps) && g.apps[i] == a {
		for i > 0 && appLess(a, g.apps[i-1]) {
			g.apps[i] = g.apps[i-1]
			g.apps[i].sched.pos = i
			i--
		}
		for i < len(g.apps)-1 && appLess(g.apps[i+1], a) {
			g.apps[i] = g.apps[i+1]
			g.apps[i].sched.pos = i
			i++
		}
		g.apps[i] = a
		a.sched.pos = i
	}
	g.allocMB += deltaMB
	rm.groupOrderChangedLocked(g)
}

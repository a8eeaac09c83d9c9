package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"tez/internal/mailbox"
	"tez/internal/timeline"
)

// ResourceManager is the cluster-wide allocator: the stand-in for the YARN
// RM. It owns the nodes, runs the scheduling heartbeat, and notifies
// applications through their event mailboxes.
//
// Lock order: rm.mu → a.mu → n.mu (c.mu is only ever taken alone). A
// scheduling pass holds rm.mu end to end and works against the rack-
// sharded node index (shards.go) and the per-app request buckets
// (queues.go); allocation events are delivered in batches after rm.mu is
// released.
type ResourceManager struct {
	cfg Config

	mu        sync.Mutex
	nodes     map[NodeID]*Node
	nodeList  []*Node // stable order for deterministic iteration
	shards    map[string]*rackShard
	shardList []*rackShard // stable rack order for deterministic placement
	apps      map[AppID]*Application
	appOrder  []AppID // submission order
	// schedTenants is the two-level fairness order: tenant groups sorted
	// by weighted allocation, each holding its apps sorted by allocation.
	// Untenanted apps ride in anonymous singleton groups, reducing the
	// hierarchy to the old flat order. tenantCfg keeps named groups (and
	// their weight/quota) resolvable even while they have no apps.
	schedTenants []*tenantGroup
	tenantCfg    map[string]*tenantGroup
	nextGroupSeq int

	// Cluster-wide capacity mirrors, kept in sync by the charge/uncharge
	// helpers so Total/UsedResources are O(1) instead of O(nodes).
	capTotal  Resource // live nodes' capacity
	usedTotal Resource // allocated across all nodes

	nextContainer ContainerID
	nextApp       AppID

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	lastPreempt time.Time
}

// New builds a cluster per cfg and starts the scheduling loop.
func New(cfg Config) *ResourceManager {
	cfg = cfg.withDefaults()
	rm := &ResourceManager{
		cfg:       cfg,
		nodes:     make(map[NodeID]*Node),
		shards:    make(map[string]*rackShard),
		apps:      make(map[AppID]*Application),
		tenantCfg: make(map[string]*tenantGroup),
		stopCh:    make(chan struct{}),
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			ID:         NodeID(fmt.Sprintf("node-%03d", i)),
			Rack:       fmt.Sprintf("rack-%02d", i/cfg.NodesPerRack),
			capacity:   cfg.NodeResource,
			live:       true,
			containers: make(map[ContainerID]*Container),
			schedAvail: cfg.NodeResource,
		}
		rm.nodes[n.ID] = n
		rm.nodeList = append(rm.nodeList, n)
		s, ok := rm.shards[n.Rack]
		if !ok {
			s = &rackShard{rack: n.Rack}
			rm.shards[n.Rack] = s
			rm.shardList = append(rm.shardList, s)
		}
		s.insert(n)
		rm.capTotal = rm.capTotal.Add(n.capacity)
	}
	rm.wg.Add(1)
	go rm.loop()
	return rm
}

// Stop halts the scheduler. Outstanding applications keep their containers;
// Stop is for test/bench teardown.
func (rm *ResourceManager) Stop() {
	rm.stopOnce.Do(func() { close(rm.stopCh) })
	rm.wg.Wait()
}

// Config returns the cluster configuration (after defaulting).
func (rm *ResourceManager) Config() Config { return rm.cfg }

// Nodes returns the ids of all nodes in stable order.
func (rm *ResourceManager) Nodes() []NodeID {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	out := make([]NodeID, len(rm.nodeList))
	for i, n := range rm.nodeList {
		out[i] = n.ID
	}
	return out
}

// RackOf returns the rack of a node ("" if unknown).
func (rm *ResourceManager) RackOf(id NodeID) string {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if n, ok := rm.nodes[id]; ok {
		return n.Rack
	}
	return ""
}

// TotalResources returns the live cluster capacity.
func (rm *ResourceManager) TotalResources() Resource {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.capTotal
}

// UsedResources returns currently allocated resources across the cluster.
func (rm *ResourceManager) UsedResources() Resource {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.usedTotal
}

// AllocatedByApp snapshots per-application holdings (for utilisation
// timelines, Figure 12).
func (rm *ResourceManager) AllocatedByApp() map[string]Resource {
	rm.mu.Lock()
	apps := make([]*Application, 0, len(rm.apps))
	for _, a := range rm.apps {
		apps = append(apps, a)
	}
	rm.mu.Unlock()
	out := make(map[string]Resource, len(apps))
	for _, a := range apps {
		out[a.Name] = a.Allocated()
	}
	return out
}

// Submit registers a new application and returns its handle. The app is
// untenanted: it competes for fair share on its own, exactly as before
// tenant groups existed.
func (rm *ResourceManager) Submit(name string) *Application {
	return rm.SubmitTenant(name, "")
}

// SubmitTenant registers a new application under the named tenant: the
// app shares that tenant's weighted fair share and memory quota with its
// other apps. An empty tenant means a private share (the old behaviour).
// Unknown tenant names are materialised with weight 1 and no quota; use
// SetTenant to configure them.
func (rm *ResourceManager) SubmitTenant(name, tenant string) *Application {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	rm.nextApp++
	a := &Application{
		ID:         rm.nextApp,
		Name:       name,
		Tenant:     tenant,
		rm:         rm,
		events:     mailbox.New[Event](),
		containers: make(map[ContainerID]*Container),
	}
	a.sched.seq = int(rm.nextApp)
	rm.apps[a.ID] = a
	rm.appOrder = append(rm.appOrder, a.ID)
	rm.insertAppLocked(rm.groupLocked(tenant), a)
	return a
}

// groupLocked resolves the scheduling group for a tenant name, creating
// it if needed. "" always creates a fresh anonymous singleton group.
// Caller holds rm.mu.
func (rm *ResourceManager) groupLocked(tenant string) *tenantGroup {
	if tenant != "" {
		if g, ok := rm.tenantCfg[tenant]; ok {
			return g
		}
	}
	rm.nextGroupSeq++
	g := &tenantGroup{name: tenant, weight: 1, seq: rm.nextGroupSeq}
	if tenant != "" {
		rm.tenantCfg[tenant] = g
	}
	rm.insertGroupLocked(g)
	return g
}

// SetTenant declares (or reconfigures) a tenant's fair-share weight and
// hard memory quota. Weight < 1 is clamped to 1; quotaMB ≤ 0 means
// unlimited. Safe to call before or after the tenant's apps exist.
func (rm *ResourceManager) SetTenant(tenant string, weight, quotaMB int) {
	if tenant == "" {
		return
	}
	if weight < 1 {
		weight = 1
	}
	if quotaMB < 0 {
		quotaMB = 0
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	g := rm.groupLocked(tenant)
	g.weight = weight
	g.quotaMB = quotaMB
	rm.groupOrderChangedLocked(g) // weight changes the order key
}

// TenantUsage reports a tenant's currently held memory and its quota
// (0 = unlimited). Unknown tenants report zeros.
func (rm *ResourceManager) TenantUsage(tenant string) (allocMB, quotaMB int) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if g, ok := rm.tenantCfg[tenant]; ok {
		return g.allocMB, g.quotaMB
	}
	return 0, 0
}

func (rm *ResourceManager) removeApp(a *Application) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	delete(rm.apps, a.ID)
	rm.removeAppLocked(a)
	for i, id := range rm.appOrder {
		if id == a.ID {
			rm.appOrder = append(rm.appOrder[:i], rm.appOrder[i+1:]...)
			break
		}
	}
}

// FailNode simulates losing a machine: its containers are killed with
// StopNodeLost and every application is told about the node failure.
// Wiring the same failure into the DFS and shuffle service is the job of
// platform.Platform.
func (rm *ResourceManager) FailNode(id NodeID) {
	rm.failNode(id, false)
}

// DecommissionNode is a planned outage: same effects, flagged as planned.
func (rm *ResourceManager) DecommissionNode(id NodeID) {
	rm.failNode(id, true)
}

func (rm *ResourceManager) failNode(id NodeID, planned bool) {
	rm.mu.Lock()
	n, ok := rm.nodes[id]
	if !ok {
		rm.mu.Unlock()
		return
	}
	n.mu.Lock()
	alreadyDown := !n.live
	n.live = false
	victims := make([]*Container, 0, len(n.containers))
	for _, c := range n.containers {
		victims = append(victims, c)
	}
	n.mu.Unlock()
	if !alreadyDown {
		rm.capTotal = rm.capTotal.Sub(n.capacity)
	}
	if n.shard != nil {
		n.shard.remove(n)
	}
	apps := make([]*Application, 0, len(rm.apps))
	for _, id := range rm.appOrder {
		if a, ok := rm.apps[id]; ok {
			apps = append(apps, a)
		}
	}
	rm.mu.Unlock()

	// Tear the victims down, batching each owner's stop notifications
	// with the node-failed event: one mailbox wake-up per application.
	byApp := make(map[*Application][]Event)
	for _, c := range victims {
		app, stopped := rm.stopContainerQuiet(c, StopNodeLost)
		if app == nil || !stopped {
			continue
		}
		rm.cfg.Timeline.Record(timeline.Event{
			Type: timeline.ContainerStopped, Tenant: c.tenant,
			Node: string(id), Container: int64(c.ID), Info: StopNodeLost.String(),
		})
		byApp[app] = append(byApp[app], ContainerStoppedEvent{ContainerID: c.ID, Node: id, Reason: StopNodeLost})
	}
	typ := timeline.NodeFailed
	if planned {
		typ = timeline.NodeDecommissioned
	}
	rm.cfg.Timeline.Record(timeline.Event{Type: typ, Node: string(id)})
	for _, a := range apps {
		evs := append(byApp[a], NodeFailedEvent{Node: id, Decommissioned: planned})
		a.events.PutAll(evs)
	}
}

// RestoreNode brings a failed node back (empty). Containers that were
// still registered on the node — possible when the restore races the
// failure's own teardown — are stopped and their owners notified before
// the node re-enters the placement index, so resources can never be
// double-counted and owners never silently lose a live handle. Restoring
// a live node is a no-op.
func (rm *ResourceManager) RestoreNode(id NodeID) {
	rm.mu.Lock()
	n, ok := rm.nodes[id]
	if !ok || n.shard != nil {
		rm.mu.Unlock()
		return
	}
	n.mu.Lock()
	if n.live {
		// Down nodes are out of the shard index and marked !live; a live
		// node outside a shard cannot happen.
		n.mu.Unlock()
		rm.mu.Unlock()
		return
	}
	stragglers := make([]*Container, 0, len(n.containers))
	for _, c := range n.containers {
		stragglers = append(stragglers, c)
	}
	n.mu.Unlock()
	rm.mu.Unlock()

	for _, c := range stragglers {
		rm.stopContainer(c, StopNodeLost, true)
	}

	rm.mu.Lock()
	defer rm.mu.Unlock()
	if n.shard != nil {
		return // raced with another restore
	}
	n.mu.Lock()
	n.live = true
	n.used = Resource{}
	n.mu.Unlock()
	rm.capTotal = rm.capTotal.Add(n.capacity)
	n.schedAvail = n.capacity
	rm.shards[n.Rack].insert(n)
}

// stopContainer tears a container down for the given reason, returning its
// resources to the node. notify controls whether the owner gets a
// ContainerStoppedEvent (involuntary stops only; an app that called Release
// already knows).
func (rm *ResourceManager) stopContainer(c *Container, reason StopReason, notify bool) {
	app, stopped := rm.stopContainerQuiet(c, reason)
	if app == nil || !stopped || !notify {
		return
	}
	rm.cfg.Timeline.Record(timeline.Event{
		Type: timeline.ContainerStopped, Tenant: c.tenant,
		Node: string(c.node.ID), Container: int64(c.ID), Info: reason.String(),
	})
	app.events.Put(ContainerStoppedEvent{ContainerID: c.ID, Node: c.node.ID, Reason: reason})
}

// stopContainerQuiet does the teardown without notifying, so callers with
// many victims (node failure) can batch the events. It returns the owning
// application and whether this call was the one that stopped the
// container (stops are exactly-once).
func (rm *ResourceManager) stopContainerQuiet(c *Container, reason StopReason) (*Application, bool) {
	c.mu.Lock()
	if c.released {
		c.mu.Unlock()
		return nil, false
	}
	c.released = true
	close(c.stop)
	c.mu.Unlock()

	rm.mu.Lock()
	rm.unchargeNodeLocked(c.node, c)
	app := rm.apps[c.App]
	if app != nil && app.removeContainer(c) {
		rm.appAllocChangedLocked(app, -c.Resource.MemoryMB)
	}
	rm.mu.Unlock()
	return app, true
}

// ScheduleNow forces an immediate scheduling pass (deterministic tests).
func (rm *ResourceManager) ScheduleNow() { rm.scheduleOnce() }

func (rm *ResourceManager) loop() {
	defer rm.wg.Done()
	t := time.NewTicker(rm.cfg.ScheduleInterval)
	defer t.Stop()
	for {
		select {
		case <-rm.stopCh:
			return
		case <-t.C:
			rm.scheduleOnce()
			if rm.cfg.FairPreemption {
				rm.maybePreempt()
			}
		}
	}
}

// grant is one allocation decision, recorded during a pass and delivered
// after rm.mu is released.
type grant struct {
	app *Application
	ev  Event
}

// scheduleOnce runs allocation passes until no progress: each pass orders
// applications most-starved-first and grants each at most one container,
// which approximates YARN fair scheduling. Allocation events accumulate
// per application across the passes and are delivered with one batched
// mailbox wake-up per app.
func (rm *ResourceManager) scheduleOnce() {
	var byApp map[*Application][]Event
	var order []*Application
	var grants []grant
	for {
		order, grants = rm.schedulePass(order, grants[:0])
		if len(grants) == 0 {
			break
		}
		if byApp == nil {
			byApp = make(map[*Application][]Event)
		}
		for _, g := range grants {
			byApp[g.app] = append(byApp[g.app], g.ev)
		}
	}
	for a, evs := range byApp {
		a.events.PutAll(evs)
	}
}

// schedulePass runs one fair-sharing pass under rm.mu: ingest staged
// requests, then walk the incrementally-sorted starvation order giving
// each application at most one grant. The scratch slices are reused
// across passes.
func (rm *ResourceManager) schedulePass(order []*Application, grants []grant) ([]*Application, []grant) {
	rm.mu.Lock()
	rm.ingestLocked()
	// Snapshot the fairness order — tenant groups by weighted allocation,
	// apps within each group by allocation — flattened at pass start:
	// grants made during the pass reposition apps and groups immediately,
	// but (as with the old per-pass sort) the pass processes the order
	// fixed at its start.
	order = order[:0]
	for _, g := range rm.schedTenants {
		order = append(order, g.apps...)
	}
	for _, a := range order {
		if ev, ok := rm.scheduleOneForLocked(a); ok {
			grants = append(grants, grant{app: a, ev: ev})
		}
	}
	rm.mu.Unlock()
	return order, grants
}

// ingestLocked drains every application's staged requests into the RM's
// priority buckets — the batched request-delivery half of the heartbeat.
// Caller holds rm.mu.
func (rm *ResourceManager) ingestLocked() {
	for _, id := range rm.appOrder {
		a, ok := rm.apps[id]
		if !ok {
			continue
		}
		a.mu.Lock()
		var batch []*ContainerRequest
		if len(a.staged) > 0 && !a.finished {
			batch = a.staged
			a.staged = nil
		}
		a.mu.Unlock()
		for _, req := range batch {
			req.owner = a
			if !req.state.CompareAndSwap(reqStaged, reqQueued) {
				continue // cancelled while staged
			}
			q := a.sched.bucketLocked(req.Priority)
			q.reqs = append(q.reqs, req)
			a.sched.queuedLive++
		}
	}
}

// scheduleOneForLocked grants at most one container to app a, honouring
// request priority order (bucket order, FIFO within a bucket — the old
// stable sort), delay scheduling, and the tenant's memory quota: a grant
// that would push the tenant past its quota is withheld before placement
// is even attempted, so delay-scheduling counters do not advance while
// the tenant is quota-bound. Cancelled requests encountered during the
// walk are pruned in place. Caller holds rm.mu.
func (rm *ResourceManager) scheduleOneForLocked(a *Application) (Event, bool) {
	quotaLeft := int(^uint(0) >> 1) // unlimited
	if g := a.sched.group; g != nil && g.quotaMB > 0 {
		quotaLeft = g.quotaMB - g.allocMB
	}
	var ev Event
	granted := false
	for _, p := range a.sched.prios {
		q := a.sched.buckets[p]
		if len(q.reqs) == 0 {
			continue
		}
		w := 0
		for r := 0; r < len(q.reqs); r++ {
			req := q.reqs[r]
			if granted {
				q.reqs[w] = req
				w++
				continue
			}
			switch req.state.Load() {
			case reqCancelled:
				rm.settleLocked(req) // no-op if Cancel already settled
				continue             // prune
			case reqQueued:
				if req.Resource.MemoryMB > quotaLeft {
					q.reqs[w] = req // over quota: keep queued, try next pass
					w++
					continue
				}
				n, loc, ok := rm.placeLocked(req)
				if !ok {
					q.reqs[w] = req
					w++
					continue
				}
				c := rm.commitLocked(a, req, n, loc)
				if c == nil {
					// Lost to a concurrent cancel (settled, prune) or
					// the app finished (request kept, moot).
					if req.state.Load() == reqQueued {
						q.reqs[w] = req
						w++
					} else {
						rm.settleLocked(req)
					}
					continue
				}
				rm.settleLocked(req)
				ev = AllocatedEvent{Container: c, Request: req}
				granted = true
			default:
				// Allocated entries never stay queued; drop defensively.
			}
		}
		for i := w; i < len(q.reqs); i++ {
			q.reqs[i] = nil // release for GC
		}
		q.reqs = q.reqs[:w]
		if granted {
			break
		}
	}
	return ev, granted
}

// placeLocked picks a node for the request per delay scheduling, or
// reports that the request must wait this round. It consults only the
// sharded index and the schedAvail mirrors — no node locks. Caller holds
// rm.mu.
func (rm *ResourceManager) placeLocked(req *ContainerRequest) (*Node, Locality, bool) {
	var excluded map[NodeID]bool
	if len(req.Exclude) > 0 {
		excluded = make(map[NodeID]bool, len(req.Exclude))
		for _, id := range req.Exclude {
			excluded[id] = true
		}
	}
	fits := func(n *Node) bool {
		return n.shard != nil && req.Resource.FitsIn(n.schedAvail) && !excluded[n.ID]
	}

	hasNodePref := len(req.Nodes) > 0
	hasRackPref := len(req.Racks) > 0 || hasNodePref

	// Node-local.
	if hasNodePref {
		for _, id := range req.Nodes {
			if n, ok := rm.nodes[id]; ok && fits(n) {
				return n, LocalityNode, true
			}
		}
		if !rm.cfg.DisableDelayScheduling {
			if !req.RelaxLocality {
				return nil, 0, false
			}
			if req.missedNode < rm.cfg.NodeLocalityDelay {
				req.missedNode++
				return nil, 0, false
			}
		}
	}

	// Rack-local: preferred racks plus the racks of preferred nodes,
	// checked one shard head at a time. The candidate rack lists are tiny,
	// so duplicates are weeded with a linear scan, not a map.
	if hasRackPref {
		var rackBuf [8]string
		racks := append(rackBuf[:0], req.Racks...)
		for _, id := range req.Nodes {
			if n, ok := rm.nodes[id]; ok {
				racks = append(racks, n.Rack)
			}
		}
		var best *Node
		for i, r := range racks {
			dup := false
			for _, prev := range racks[:i] {
				if prev == r {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			s, ok := rm.shards[r]
			if !ok {
				continue
			}
			if n := s.best(req.Resource, excluded); n != nil && (best == nil || nodeLess(n, best)) {
				best = n
			}
		}
		if best != nil {
			return best, LocalityRack, true
		}
		if !rm.cfg.DisableDelayScheduling {
			if !req.RelaxLocality {
				return nil, 0, false
			}
			if req.missedRack < rm.cfg.RackLocalityDelay {
				req.missedRack++
				return nil, 0, false
			}
		}
	}

	// Anywhere: least-loaded live node that fits, one candidate per rack.
	var best *Node
	for _, s := range rm.shardList {
		if n := s.best(req.Resource, excluded); n != nil && (best == nil || nodeLess(n, best)) {
			best = n
		}
	}
	if best != nil {
		return best, LocalityAny, true
	}
	return nil, 0, false
}

// commitLocked finalises a placement: wins the request's allocate-vs-
// cancel race, charges the node, and registers the container with the
// app. It returns nil if the request was concurrently cancelled (state
// left reqCancelled) or the app finished (state restored to reqQueued).
// Caller holds rm.mu.
func (rm *ResourceManager) commitLocked(a *Application, req *ContainerRequest, n *Node, loc Locality) *Container {
	if !req.state.CompareAndSwap(reqQueued, reqAllocated) {
		return nil // cancelled won
	}
	rm.nextContainer++
	c := &Container{
		ID:        rm.nextContainer,
		App:       a.ID,
		Resource:  req.Resource,
		Locality:  loc,
		tenant:    a.Tenant,
		node:      n,
		rm:        rm,
		stop:      make(chan struct{}),
		allocTime: time.Now(),
	}
	rm.chargeNodeLocked(n, c)

	a.mu.Lock()
	if a.finished {
		a.mu.Unlock()
		rm.unchargeNodeLocked(n, c)
		req.state.Store(reqQueued) // roll back; the app is going away
		return nil
	}
	a.containers[c.ID] = c
	a.allocated = a.allocated.Add(req.Resource)
	a.mu.Unlock()
	rm.appAllocChangedLocked(a, req.Resource.MemoryMB)
	rm.cfg.Timeline.Record(timeline.Event{
		Type: timeline.ContainerAllocated, Tenant: a.Tenant,
		Node: string(n.ID), Container: int64(c.ID), Info: loc.String(),
	})
	return c
}

// maybePreempt enforces instantaneous weighted fair share across tenant
// groups: when a group with unmet demand has waited below its weighted
// share for at least PreemptionStarvation, the newest containers of the
// most-over-share groups are killed with StopPreempted until shares
// balance. Untenanted apps are their own singleton groups of weight 1,
// so with no tenants configured this is the old per-app preemption.
// Called only from the RM loop goroutine; starvedSince needs no lock.
func (rm *ResourceManager) maybePreempt() {
	rm.mu.Lock()
	if time.Since(rm.lastPreempt) < rm.cfg.PreemptionInterval {
		rm.mu.Unlock()
		return
	}
	rm.lastPreempt = time.Now()
	type gstate struct {
		g       *tenantGroup
		weight  int
		apps    []*Application
		held    int
		pending int
		share   int
	}
	groups := make([]gstate, 0, len(rm.schedTenants))
	for _, g := range rm.schedTenants {
		groups = append(groups, gstate{
			g: g, weight: g.weight,
			apps: append([]*Application(nil), g.apps...),
		})
	}
	totalMem := rm.capTotal.MemoryMB
	rm.mu.Unlock()

	// Demand/holdings are computed outside rm.mu (PendingRequests takes
	// rm.mu → a.mu itself).
	sumW := 0
	active := groups[:0]
	for _, s := range groups {
		for _, a := range s.apps {
			s.held += a.Allocated().MemoryMB
			s.pending += a.PendingRequests()
		}
		if s.held > 0 || s.pending > 0 {
			sumW += s.weight
			active = append(active, s)
		} else {
			s.g.starvedSince = time.Time{}
		}
	}
	if len(active) < 2 || totalMem == 0 || sumW == 0 {
		for _, s := range active {
			s.g.starvedSince = time.Time{}
		}
		return
	}

	now := time.Now()
	var starved, over []gstate
	for i := range active {
		s := &active[i]
		s.share = totalMem * s.weight / sumW
		switch {
		case s.pending > 0 && s.held < s.share:
			if s.g.starvedSince.IsZero() {
				s.g.starvedSince = now
			}
			if now.Sub(s.g.starvedSince) >= rm.cfg.PreemptionStarvation {
				starved = append(starved, *s)
			}
		default:
			s.g.starvedSince = time.Time{}
			if s.held > s.share {
				over = append(over, *s)
			}
		}
	}
	if len(starved) == 0 || len(over) == 0 {
		return
	}
	// Most over share first: the worst offender pays before marginal ones.
	sort.Slice(over, func(i, j int) bool {
		return over[i].held-over[i].share > over[j].held-over[j].share
	})
	for _, s := range over {
		excess := s.held - s.share
		var victims []*Container
		for _, a := range s.apps {
			a.mu.Lock()
			for _, c := range a.containers {
				victims = append(victims, c)
			}
			a.mu.Unlock()
		}
		// Newest first: least sunk work lost.
		sort.Slice(victims, func(i, j int) bool {
			return victims[i].allocTime.After(victims[j].allocTime)
		})
		for _, c := range victims {
			if excess <= 0 {
				break
			}
			excess -= c.Resource.MemoryMB
			rm.stopContainer(c, StopPreempted, true)
		}
	}
}

package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"tez/internal/mailbox"
	"tez/internal/timeline"
)

// ResourceManager is the cluster-wide allocator: the stand-in for the YARN
// RM. It owns the nodes, runs the scheduling heartbeat, and notifies
// applications through their event mailboxes.
//
// One goroutine, the loop, owns every node, shard, tenant group, app and
// request bucket and the capacity mirrors. Other goroutines reach that
// state through the loop's mailbox: Request, Cancel and Release post a
// func() and return; every other call posts one and waits for it to run,
// so a caller's query sees its own earlier posts. A scheduling pass
// (shards.go, queues.go) runs on the loop end to end, and its allocation
// events are delivered in per-app batches when it ends. The node list and
// the racks are fixed at New and read without the loop.
type ResourceManager struct {
	cfg Config

	// Fixed at New.
	nodes    map[NodeID]*Node
	nodeList []*Node // stable order for deterministic iteration

	// inbox carries work to the loop; Stop closes it. done is closed when
	// the loop returns.
	inbox *mailbox.Mailbox[func()]
	done  chan struct{}

	// Everything below is owned by the loop.
	shards    map[string]*rackShard
	shardList []*rackShard // stable rack order for deterministic placement
	apps      map[AppID]*Application
	// schedTenants is the two-level fairness order: tenant groups sorted
	// by weighted allocation, each holding its apps sorted by allocation.
	// Untenanted apps ride in anonymous singleton groups, so with no
	// tenants the order is flat over apps. tenantCfg keeps named groups (and
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
}

// New builds a cluster per cfg and starts the scheduling loop.
func New(cfg Config) *ResourceManager {
	cfg = cfg.withDefaults()
	rm := &ResourceManager{
		cfg:       cfg,
		nodes:     make(map[NodeID]*Node),
		inbox:     mailbox.New[func()](),
		done:      make(chan struct{}),
		shards:    make(map[string]*rackShard),
		apps:      make(map[AppID]*Application),
		tenantCfg: make(map[string]*tenantGroup),
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			ID:         NodeID(fmt.Sprintf("node-%03d", i)),
			Rack:       fmt.Sprintf("rack-%02d", i/cfg.NodesPerRack),
			capacity:   cfg.NodeResource,
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
	go rm.loop()
	return rm
}

// Stop halts the loop once every call posted before it has run. A call
// made after Stop returns without effect, and a query then reports zero
// values. Outstanding applications keep their containers; Stop is for
// test/bench teardown.
func (rm *ResourceManager) Stop() {
	rm.inbox.Close()
	<-rm.done
}

// loop is the RM's one select: its mailbox, the heartbeat ticker and,
// under FairPreemption, the preemption ticker. Every wake-up first runs
// the calls posted so far, so a pass sees every call posted before it. It
// returns once Stop has closed the mailbox and the backlog is run.
func (rm *ResourceManager) loop() {
	defer close(rm.done)
	t := time.NewTicker(rm.cfg.ScheduleInterval)
	defer t.Stop()
	var preempt <-chan time.Time // nil without FairPreemption: never fires
	if rm.cfg.FairPreemption {
		pt := time.NewTicker(rm.cfg.PreemptionInterval)
		defer pt.Stop()
		preempt = pt.C
	}
	var batch []func()
	for {
		var pass func()
		select {
		case <-rm.inbox.Ready():
		case <-t.C:
			pass = rm.scheduleOnce
		case <-preempt:
			pass = rm.maybePreempt
		}
		var open bool
		if batch, open = rm.inbox.Drain(batch); !open {
			return
		}
		for i, fn := range batch {
			batch[i] = nil
			fn()
		}
		if pass != nil {
			pass()
		}
	}
}

// post hands fn to the loop and returns. After Stop fn never runs.
func (rm *ResourceManager) post(fn func()) { rm.inbox.Put(fn) }

// call runs fn on the loop and waits for it. After Stop it returns
// without running fn.
func (rm *ResourceManager) call(fn func()) {
	ran := make(chan struct{})
	rm.inbox.Put(func() { fn(); close(ran) })
	select {
	case <-ran:
	case <-rm.done:
	}
}

// Config returns the cluster configuration (after defaulting).
func (rm *ResourceManager) Config() Config { return rm.cfg }

// Nodes returns the ids of all nodes in stable order.
func (rm *ResourceManager) Nodes() []NodeID {
	out := make([]NodeID, len(rm.nodeList))
	for i, n := range rm.nodeList {
		out[i] = n.ID
	}
	return out
}

// RackOf returns the rack of a node ("" if unknown).
func (rm *ResourceManager) RackOf(id NodeID) string {
	if n, ok := rm.nodes[id]; ok {
		return n.Rack
	}
	return ""
}

// TotalResources returns the live cluster capacity.
func (rm *ResourceManager) TotalResources() (r Resource) {
	rm.call(func() { r = rm.capTotal })
	return r
}

// UsedResources returns currently allocated resources across the cluster.
func (rm *ResourceManager) UsedResources() (r Resource) {
	rm.call(func() { r = rm.usedTotal })
	return r
}

// AllocatedByApp snapshots per-application holdings (for utilisation
// timelines, Figure 12).
func (rm *ResourceManager) AllocatedByApp() map[string]Resource {
	out := make(map[string]Resource)
	rm.call(func() {
		for _, a := range rm.apps {
			out[a.Name] = a.allocated
		}
	})
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
// other apps. An empty tenant means a private share.
// Unknown tenant names are materialised with weight 1 and no quota; use
// SetTenant to configure them.
func (rm *ResourceManager) SubmitTenant(name, tenant string) *Application {
	a := &Application{
		Name:       name,
		Tenant:     tenant,
		rm:         rm,
		events:     mailbox.New[Event](),
		containers: make(map[ContainerID]*Container),
	}
	rm.call(func() {
		rm.nextApp++
		a.ID = rm.nextApp
		a.sched.seq = int(rm.nextApp)
		rm.apps[a.ID] = a
		rm.insertApp(rm.group(tenant), a)
	})
	return a
}

// group resolves the scheduling group for a tenant name, creating it if
// needed. "" always creates a fresh anonymous singleton group.
func (rm *ResourceManager) group(tenant string) *tenantGroup {
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
	rm.insertGroup(g)
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
	rm.call(func() {
		g := rm.group(tenant)
		g.weight = weight
		g.quotaMB = quotaMB
		rm.groupOrderChanged(g) // weight changes the order key
	})
}

// TenantUsage reports a tenant's currently held memory and its quota
// (0 = unlimited). Unknown tenants report zeros.
func (rm *ResourceManager) TenantUsage(tenant string) (allocMB, quotaMB int) {
	rm.call(func() {
		if g, ok := rm.tenantCfg[tenant]; ok {
			allocMB, quotaMB = g.allocMB, g.quotaMB
		}
	})
	return allocMB, quotaMB
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
	n, ok := rm.nodes[id]
	if !ok {
		return
	}
	rm.call(func() {
		if n.shard != nil {
			rm.capTotal = rm.capTotal.Sub(n.capacity)
			n.shard.remove(n)
		}
		// Tear the containers down, batching each owner's stop
		// notifications with the node-failed event: one mailbox wake-up
		// per application.
		byApp := make(map[*Application][]Event)
		for _, c := range n.containers {
			if app, ev, ok := rm.kill(c, StopNodeLost); ok {
				byApp[app] = append(byApp[app], ev)
			}
		}
		typ := timeline.NodeFailed
		if planned {
			typ = timeline.NodeDecommissioned
		}
		rm.cfg.Timeline.Record(timeline.Event{Type: typ, Node: string(id)})
		for _, a := range rm.apps {
			a.events.PutAll(append(byApp[a], NodeFailedEvent{Node: id, Decommissioned: planned}))
		}
	})
}

// RestoreNode brings a failed node back, empty: its failure stopped and
// uncharged every container it held, and a down node gets no grants.
// Restoring a live or unknown node is a no-op.
func (rm *ResourceManager) RestoreNode(id NodeID) {
	n, ok := rm.nodes[id]
	if !ok {
		return
	}
	rm.call(func() {
		if n.shard != nil {
			return
		}
		rm.capTotal = rm.capTotal.Add(n.capacity)
		rm.shards[n.Rack].insert(n)
	})
}

// kill stops c involuntarily. If this call is the one that stopped it (a
// Release may have got there first), it records the stop and returns the
// owner and the event that tells it.
func (rm *ResourceManager) kill(c *Container, reason StopReason) (*Application, Event, bool) {
	stopped := c.terminate()
	app := rm.uncharge(c)
	if app == nil || !stopped {
		return nil, nil, false
	}
	rm.cfg.Timeline.Record(timeline.Event{
		Type: timeline.ContainerStopped, Tenant: c.tenant,
		Node: string(c.node.ID), Container: int64(c.ID), Info: reason.String(),
	})
	return app, ContainerStoppedEvent{ContainerID: c.ID, Node: c.node.ID, Reason: reason}, true
}

// uncharge returns a stopped container's resources to its node and its
// owner and returns the owner. Removing c from both maps makes it
// idempotent: a Release's accounting may run after the loop has already
// stopped the container for a node failure.
func (rm *ResourceManager) uncharge(c *Container) *Application {
	rm.unchargeNode(c.node, c)
	app := rm.apps[c.App]
	if app != nil && app.removeContainer(c) {
		rm.appAllocChanged(app, -c.Resource.MemoryMB)
	}
	return app
}

// ScheduleNow runs a scheduling round on the loop, after every call
// posted before it, and waits for it (deterministic tests).
func (rm *ResourceManager) ScheduleNow() { rm.call(rm.scheduleOnce) }

// scheduleOnce runs allocation passes until no progress: each pass orders
// applications most-starved-first and grants each at most one container,
// which approximates YARN fair scheduling. Allocation events accumulate
// per application across the passes and are delivered with one batched
// mailbox wake-up per app.
func (rm *ResourceManager) scheduleOnce() {
	var byApp map[*Application][]Event
	var order []*Application
	for progress := true; progress; {
		// Snapshot the fairness order — tenant groups by weighted
		// allocation, apps within each group by allocation — flattened at
		// pass start: grants made during the pass reposition apps and
		// groups immediately, but the pass processes the order fixed at
		// its start.
		order = order[:0]
		for _, g := range rm.schedTenants {
			order = append(order, g.apps...)
		}
		progress = false
		for _, a := range order {
			if ev, ok := rm.scheduleOneFor(a); ok {
				if byApp == nil {
					byApp = make(map[*Application][]Event)
				}
				byApp[a] = append(byApp[a], ev)
				progress = true
			}
		}
	}
	for a, evs := range byApp {
		a.events.PutAll(evs)
	}
}

// scheduleOneFor grants at most one container to app a, honouring
// request priority order (bucket order, FIFO within a bucket), delay
// scheduling, and the tenant's memory quota: a grant
// that would push the tenant past its quota is withheld before placement
// is even attempted, so delay-scheduling counters do not advance while
// the tenant is quota-bound. Cancelled requests encountered during the
// walk are pruned in place.
func (rm *ResourceManager) scheduleOneFor(a *Application) (Event, bool) {
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
			if req.state != reqQueued {
				continue // cancelled: prune
			}
			if req.Resource.MemoryMB > quotaLeft {
				q.reqs[w] = req // over quota: keep queued, try next pass
				w++
				continue
			}
			n, loc, ok := rm.place(req)
			if !ok {
				q.reqs[w] = req
				w++
				continue
			}
			ev = AllocatedEvent{Container: rm.commit(a, req, n, loc), Request: req}
			granted = true
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

// place picks a node for the request per delay scheduling, or reports
// that the request must wait this round. It consults only the sharded
// index and the schedAvail mirrors.
func (rm *ResourceManager) place(req *ContainerRequest) (*Node, Locality, bool) {
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

// commit grants req to app a on node n: it takes the request out of the
// live queue, charges the node, and registers the container with the
// app. Container IDs therefore follow grant order.
func (rm *ResourceManager) commit(a *Application, req *ContainerRequest, n *Node, loc Locality) *Container {
	req.state = reqAllocated
	a.sched.queuedLive--
	rm.nextContainer++
	c := &Container{
		ID:       rm.nextContainer,
		App:      a.ID,
		Resource: req.Resource,
		Locality: loc,
		tenant:   a.Tenant,
		node:     n,
		rm:       rm,
		stop:     make(chan struct{}),
	}
	rm.chargeNode(n, c)
	a.containers[c.ID] = c
	a.allocated = a.allocated.Add(req.Resource)
	rm.appAllocChanged(a, req.Resource.MemoryMB)
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
// so with no tenants configured preemption balances apps.
func (rm *ResourceManager) maybePreempt() {
	type gstate struct {
		g                    *tenantGroup
		held, pending, share int
	}
	var active []gstate
	sumW := 0
	for _, g := range rm.schedTenants {
		s := gstate{g: g, held: g.allocMB}
		for _, a := range g.apps {
			s.pending += a.sched.queuedLive
		}
		if s.held > 0 || s.pending > 0 {
			sumW += g.weight
			active = append(active, s)
		} else {
			g.starvedSince = time.Time{}
		}
	}
	totalMem := rm.capTotal.MemoryMB
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
		s.share = totalMem * s.g.weight / sumW
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
	slices.SortStableFunc(over, func(x, y gstate) int {
		return cmp.Compare(y.held-y.share, x.held-x.share)
	})
	for _, s := range over {
		excess := s.held - s.share
		var victims []*Container
		for _, a := range s.g.apps {
			for _, c := range a.containers {
				victims = append(victims, c)
			}
		}
		// Newest first — container IDs follow grant order — so the least
		// sunk work is lost.
		slices.SortFunc(victims, func(x, y *Container) int { return cmp.Compare(y.ID, x.ID) })
		for _, c := range victims {
			if excess <= 0 {
				break
			}
			excess -= c.Resource.MemoryMB
			if app, ev, ok := rm.kill(c, StopPreempted); ok {
				app.events.Put(ev)
			}
		}
	}
}

// Package chaos is a seeded, deterministic fault-injection plane for the
// simulated cluster. A single Plane is shared by the resource manager, the
// shuffle service, the DFS and the AM; each layer calls a nil-safe hook at
// its natural fault point and the plane decides — from the seed and a
// stable per-site key, never from wall-clock or goroutine interleaving —
// whether that operation fails, how slowly it runs, and when scheduled
// whole-node events (crash, decommission) fire.
//
// Determinism contract: a Plane built from (seed, Spec) and bound to the
// same node list always produces the same node-event schedule, the same
// sick/slow node sets, and the same per-site decision stream. Decisions
// are pure functions of (seed, site key, per-site call index), so two runs
// that issue the same logical operations see the same faults regardless of
// thread interleaving. The production path passes a nil *Plane everywhere
// and every hook is a no-op.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// Injected failures surfaced to the layers.
var (
	// ErrTaskFault is returned by container execution on sick nodes (and
	// on TaskFaultProb rolls): the task attempt fails as if the process
	// had crashed, exercising task re-execution and node blacklisting.
	ErrTaskFault = errors.New("chaos: injected task fault")
	// ErrAMCrash marks a DAG torn down by an injected AM crash; with
	// checkpointing enabled a fresh session can Recover it.
	ErrAMCrash = errors.New("chaos: injected AM crash")
)

// Fault classifies the outcome of a fetch-path decision.
type Fault int

// Fetch-decision outcomes.
const (
	FaultNone Fault = iota
	// FaultTransient is a retryable network-style error.
	FaultTransient
	// FaultDataLost is a permanent error: the consumer must report the
	// loss so the producer is re-executed.
	FaultDataLost
)

// NodeAction is one scheduled whole-node event: when the plane's step
// counter (advanced once per task execution) reaches Step, Node is crashed
// or decommissioned through the callbacks bound by the platform.
type NodeAction struct {
	Step         int
	Node         string
	Decommission bool
}

func (a NodeAction) String() string {
	kind := "crash"
	if a.Decommission {
		kind = "decommission"
	}
	return fmt.Sprintf("step %d: %s %s", a.Step, kind, a.Node)
}

// Spec declares a fault schedule. All probabilities are in [0,1); zero
// values inject nothing.
type Spec struct {
	// TransientFetchProb injects retryable shuffle-fetch errors.
	TransientFetchProb float64
	// FetchDataLostProb injects permanent shuffle-fetch errors (the
	// consumer reports an InputReadError and the producer re-executes).
	FetchDataLostProb float64
	// LaunchFailProb makes container launches fail (allocation succeeded,
	// the process never came up — the scheduler must re-request).
	LaunchFailProb float64
	// TaskFaultProb fails task executions on any node.
	TaskFaultProb float64
	// DFSReadFaultProb injects transient errors into DFS reads issued from
	// a task node (reads with an empty local node — committers, test
	// verification — are never injected).
	DFSReadFaultProb float64

	// SickNodes lists nodes on which every task execution fails; SickNodeCount
	// instead picks that many nodes deterministically from the seed at Bind.
	// Sick nodes exercise the blacklisting path: the node is alive and
	// accepts containers, but work placed there always dies.
	SickNodes     []string
	SickNodeCount int

	// SlowNodes (or SlowNodeCount, seed-picked at Bind) run every task
	// execution SlowExecDelay later and serve shuffle fetches
	// SlowFetchFactor× slower — straggler material for speculation.
	SlowNodes       []string
	SlowNodeCount   int
	SlowExecDelay   time.Duration
	SlowFetchFactor float64

	// NodeActions is an explicit node-event schedule. CrashNodes /
	// DecommissionNodes instead generate that many events at Bind,
	// StepSpacing steps apart (default 4), on seed-picked distinct nodes.
	NodeActions       []NodeAction
	CrashNodes        int
	DecommissionNodes int
	StepSpacing       int

	// AMCrashAfterVertexCompletions crashes the AM (once) after that many
	// vertex completions across the plane's lifetime.
	AMCrashAfterVertexCompletions int

	// ScopeTenantPrefix, when non-empty, restricts fault injection to
	// operations whose scope tag starts with the prefix — the tenant-
	// isolation drill: faults land only on one tenant's traffic while
	// everyone else runs clean. Tags per hook: task execution and
	// container launch carry the owning app's tenant name; shuffle
	// fetches carry the fetch site, which begins with the DAG run id
	// ("<session>.<dag>.<seq>") — name sessions after tenants and the
	// prefix matches; DFS reads carry the file path. Node-level
	// behaviours (sick/slow node picks are still made, node actions,
	// exec delays) are whole-machine and stay unscoped, but a sick
	// node only fails executions whose tag is in scope.
	ScopeTenantPrefix string
}

// inScope reports whether a fault with the given scope tag may be
// injected under ScopeTenantPrefix. An empty scope admits everything.
func (p *Plane) inScope(tag string) bool {
	return p.spec.ScopeTenantPrefix == "" || strings.HasPrefix(tag, p.spec.ScopeTenantPrefix)
}

// Plane carries one seeded fault schedule. The zero/nil Plane injects
// nothing; every exported method is safe on a nil receiver.
type Plane struct {
	seed int64
	spec Spec

	// FailNode and DecommissionNode are bound by the platform so scheduled
	// node actions take out containers, DFS replicas and shuffle outputs
	// together. Unset callbacks make node actions no-ops.
	FailNode         func(node string)
	DecommissionNode func(node string)
	// Observer, when set, is told about every injected fault as (kind,
	// site) — the platform binds it to the timeline journal. Called
	// outside the plane's lock.
	Observer func(kind, site string)

	nodes   []string
	actions []NodeAction // sorted by Step
	sick    map[string]bool
	slow    map[string]bool

	mu         sync.Mutex
	step       int
	nextAction int
	amCrashed  bool
	completed  int // vertex completions observed
	sites      map[string]uint64
	injected   map[string]int64
}

// New builds a plane from a seed and spec. Zero seed means 1. Call Bind
// before use so node-targeted entries resolve against the real topology
// (platform.New does this when Config.Chaos is set).
func New(seed int64, spec Spec) *Plane {
	if seed == 0 {
		seed = 1
	}
	return &Plane{
		seed:     seed,
		spec:     spec,
		sick:     map[string]bool{},
		slow:     map[string]bool{},
		sites:    map[string]uint64{},
		injected: map[string]int64{},
	}
}

// Bind resolves the schedule against the cluster's node list: seed-picked
// sick/slow nodes and generated node actions become concrete. Binding is
// idempotent for a given node list and deterministic in the seed.
func (p *Plane) Bind(nodes []string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nodes = append([]string(nil), nodes...)
	rng := rand.New(rand.NewSource(p.seed))
	p.sick = map[string]bool{}
	p.slow = map[string]bool{}
	for _, n := range p.spec.SickNodes {
		p.sick[n] = true
	}
	for _, n := range p.spec.SlowNodes {
		p.slow[n] = true
	}
	pick := func(k int, into map[string]bool, avoid map[string]bool) {
		perm := rng.Perm(len(nodes))
		taken := 0
		for _, i := range perm {
			if taken >= k {
				break
			}
			n := nodes[i]
			if into[n] || (avoid != nil && avoid[n]) {
				continue
			}
			into[n] = true
			taken++
		}
	}
	pick(p.spec.SickNodeCount, p.sick, nil)
	pick(p.spec.SlowNodeCount, p.slow, p.sick)

	spacing := p.spec.StepSpacing
	if spacing <= 0 {
		spacing = 4
	}
	p.actions = append([]NodeAction(nil), p.spec.NodeActions...)
	victims := map[string]bool{}
	pick(p.spec.CrashNodes+p.spec.DecommissionNodes, victims, nil)
	names := make([]string, 0, len(victims))
	for n := range victims {
		names = append(names, n)
	}
	sort.Strings(names)
	// Shuffle deterministically so victim order is not lexical.
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	for i, n := range names {
		p.actions = append(p.actions, NodeAction{
			Step:         spacing * (i + 1),
			Node:         n,
			Decommission: i >= p.spec.CrashNodes,
		})
	}
	sort.SliceStable(p.actions, func(i, j int) bool { return p.actions[i].Step < p.actions[j].Step })
	p.nextAction = 0
}

// Schedule returns the bound node-event schedule (for determinism tests
// and reports).
func (p *Plane) Schedule() []NodeAction {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]NodeAction(nil), p.actions...)
}

// SickNodes returns the bound always-failing node set, sorted.
func (p *Plane) SickNodes() []string {
	return p.nodeSet(func(p *Plane) map[string]bool { return p.sick })
}

// SlowNodes returns the bound slow node set, sorted.
func (p *Plane) SlowNodes() []string {
	return p.nodeSet(func(p *Plane) map[string]bool { return p.slow })
}

func (p *Plane) nodeSet(get func(*Plane) map[string]bool) []string {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(get(p)))
	for n := range get(p) {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Describe renders the bound schedule — two planes with the same seed and
// spec describe identically (the determinism check CI pins).
func (p *Plane) Describe() string {
	if p == nil {
		return "chaos: off"
	}
	var b []byte
	b = fmt.Appendf(b, "seed=%d sick=%v slow=%v actions=[", p.seed, p.SickNodes(), p.SlowNodes())
	for i, a := range p.Schedule() {
		if i > 0 {
			b = append(b, "; "...)
		}
		b = append(b, a.String()...)
	}
	b = append(b, ']')
	return string(b)
}

// Injected snapshots per-kind injection counts (observability and tests).
func (p *Plane) Injected() map[string]int64 {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64, len(p.injected))
	for k, v := range p.injected {
		out[k] = v
	}
	return out
}

// roll makes one deterministic decision for a site: the n-th call for a
// given site key always sees the same pseudo-random draw for a given seed.
func (p *Plane) roll(kind, site string, prob float64) bool {
	if p == nil || prob <= 0 {
		return false
	}
	p.mu.Lock()
	n := p.sites[kind+"\x00"+site]
	p.sites[kind+"\x00"+site] = n + 1
	p.mu.Unlock()
	h := mix(uint64(p.seed) ^ mix(hashString(kind)^hashString(site)+n))
	hit := float64(h>>11)/(1<<53) < prob
	if hit {
		p.mu.Lock()
		p.injected[kind]++
		p.mu.Unlock()
		if p.Observer != nil {
			p.Observer(kind, site)
		}
	}
	return hit
}

// TaskStarted advances the step clock (one tick per task execution) and
// fires any node actions that have come due. Actions run asynchronously:
// the kill path takes platform locks the caller may be under.
func (p *Plane) TaskStarted(node string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.step++
	var due []NodeAction
	for p.nextAction < len(p.actions) && p.actions[p.nextAction].Step <= p.step {
		due = append(due, p.actions[p.nextAction])
		p.nextAction++
	}
	fail, decom := p.FailNode, p.DecommissionNode
	if len(due) > 0 {
		p.injected["node_actions"] += int64(len(due))
	}
	p.mu.Unlock()
	if p.Observer != nil {
		for _, a := range due {
			p.Observer("node_action", a.String())
		}
	}
	for _, a := range due {
		a := a
		go func() {
			if a.Decommission {
				if decom != nil {
					decom(a.Node)
				}
			} else if fail != nil {
				fail(a.Node)
			}
		}()
	}
}

// Step returns the current step-clock value.
func (p *Plane) Step() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.step
}

// ExecFault decides whether a task execution on node fails. site is the
// scope tag of the execution (the cluster passes the container's tenant;
// "" when untenanted) and also keys the decision stream.
func (p *Plane) ExecFault(node, site string) error {
	if p == nil {
		return nil
	}
	if !p.inScope(site) {
		return nil
	}
	p.mu.Lock()
	sick := p.sick[node]
	if sick {
		p.injected["exec_sick"]++
	}
	p.mu.Unlock()
	if sick {
		if p.Observer != nil {
			p.Observer("exec_sick", node+"/"+site)
		}
		return fmt.Errorf("%w (sick node %s)", ErrTaskFault, node)
	}
	if p.roll("exec", node+"/"+site, p.spec.TaskFaultProb) {
		return fmt.Errorf("%w (node %s)", ErrTaskFault, node)
	}
	return nil
}

// ExecDelay returns the extra latency a task execution on node pays.
func (p *Plane) ExecDelay(node string) time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.slow[node] {
		p.injected["slow_exec"]++
		return p.spec.SlowExecDelay
	}
	return 0
}

// LaunchFault decides whether a container launch on node fails. tag is
// the launch's scope tag (the owning app's tenant; "" when untenanted)
// and does not key the decision stream, so untenanted runs draw the same
// stream they always did.
func (p *Plane) LaunchFault(node, tag string) bool {
	if p == nil || !p.inScope(tag) {
		return false
	}
	return p.roll("launch", node, p.spec.LaunchFailProb)
}

// FetchFault decides the fate of one shuffle fetch. site should name the
// (output, partition, reader) so retries of the same fetch draw fresh
// decisions in a stable stream.
func (p *Plane) FetchFault(site string) Fault {
	if p == nil || !p.inScope(site) {
		return FaultNone
	}
	if p.roll("fetch_lost", site, p.spec.FetchDataLostProb) {
		return FaultDataLost
	}
	if p.roll("fetch_transient", site, p.spec.TransientFetchProb) {
		return FaultTransient
	}
	return FaultNone
}

// FetchDelayFactor multiplies the transfer cost of fetches served by node.
func (p *Plane) FetchDelayFactor(node string) float64 {
	if p == nil {
		return 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.slow[node] && p.spec.SlowFetchFactor > 1 {
		p.injected["slow_fetch"]++
		return p.spec.SlowFetchFactor
	}
	return 1
}

// DFSReadFault decides whether a DFS read issued from node fails
// transiently. Under a tenant scope the path is the tag; paths rarely
// carry tenant names, so scoped specs effectively suppress DFS faults.
func (p *Plane) DFSReadFault(path, node string) bool {
	if p == nil || !p.inScope(path) {
		return false
	}
	return p.roll("dfs_read", node+"/"+path, p.spec.DFSReadFaultProb)
}

// OnVertexCompleted counts a vertex completion and reports — exactly once
// — that the AM should crash now.
func (p *Plane) OnVertexCompleted() bool {
	if p == nil || p.spec.AMCrashAfterVertexCompletions <= 0 {
		return false
	}
	p.mu.Lock()
	crash := false
	p.completed++
	if !p.amCrashed && p.completed >= p.spec.AMCrashAfterVertexCompletions {
		p.amCrashed = true
		p.injected["am_crash"]++
		crash = true
	}
	p.mu.Unlock()
	if crash && p.Observer != nil {
		p.Observer("am_crash", fmt.Sprintf("after %d vertex completions", p.spec.AMCrashAfterVertexCompletions))
	}
	return crash
}

// mix is the splitmix64 finalizer: a cheap, well-distributed hash step.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString is FNV-1a 64.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

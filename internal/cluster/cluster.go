// Package cluster implements an in-process resource management layer with
// the semantics of Hadoop YARN that Apache Tez depends on (§4 of the paper):
// container allocation with node/rack/any locality and delay scheduling,
// fair sharing across concurrently running applications, preemption of
// over-share applications, container launch overheads (so that container
// reuse is measurably profitable), and node failure/decommission
// notifications delivered to application masters.
//
// The repro note for this paper says "no YARN bindings; must mock resource
// manager layer" — this package is that substitution. Containers are real
// goroutine-hosted execution slots: applications launch work inside them and
// the work actually runs, but launch/warm-up overheads and capacities are
// explicit, configurable simulation parameters.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"tez/internal/chaos"
	"tez/internal/timeline"
)

// Resource is a multi-dimensional resource vector, like YARN's
// memory+vcores model.
type Resource struct {
	MemoryMB int
	VCores   int
}

// Add returns r + o.
func (r Resource) Add(o Resource) Resource {
	return Resource{r.MemoryMB + o.MemoryMB, r.VCores + o.VCores}
}

// Sub returns r - o.
func (r Resource) Sub(o Resource) Resource {
	return Resource{r.MemoryMB - o.MemoryMB, r.VCores - o.VCores}
}

// FitsIn reports whether r fits within capacity c.
func (r Resource) FitsIn(c Resource) bool {
	return r.MemoryMB <= c.MemoryMB && r.VCores <= c.VCores
}

// IsZero reports whether r is the zero resource.
func (r Resource) IsZero() bool { return r.MemoryMB == 0 && r.VCores == 0 }

func (r Resource) String() string {
	return fmt.Sprintf("<mem:%dMB, vcores:%d>", r.MemoryMB, r.VCores)
}

// Locality describes how well an allocation matched the request's
// preference.
type Locality int

const (
	// LocalityNode means the container is on a preferred node.
	LocalityNode Locality = iota
	// LocalityRack means the container is on a preferred rack.
	LocalityRack
	// LocalityAny means the container is anywhere ("off-switch").
	LocalityAny
)

func (l Locality) String() string {
	switch l {
	case LocalityNode:
		return "NODE_LOCAL"
	case LocalityRack:
		return "RACK_LOCAL"
	default:
		return "OFF_SWITCH"
	}
}

// Config parameterises the simulated cluster.
type Config struct {
	// Nodes is the number of nodes; NodesPerRack groups them into racks.
	Nodes        int
	NodesPerRack int
	// NodeResource is the capacity of each node.
	NodeResource Resource
	// ContainerLaunchOverhead is charged once when a container process is
	// launched (YARN container localisation + process start).
	ContainerLaunchOverhead time.Duration
	// WarmupPenalty is charged for the first execution in a fresh
	// container (the JVM JIT warm-up the paper credits container reuse
	// with avoiding).
	WarmupPenalty time.Duration
	// ScheduleInterval is the allocation heartbeat period.
	ScheduleInterval time.Duration
	// NodeLocalityDelay / RackLocalityDelay are the number of missed
	// scheduling opportunities before a request's locality constraint is
	// relaxed node→rack and rack→any (delay scheduling, Zaharia et al.).
	NodeLocalityDelay int
	RackLocalityDelay int
	// DisableDelayScheduling turns off the wait-before-relax behaviour;
	// requests then allocate anywhere immediately (ablation knob).
	DisableDelayScheduling bool
	// FairPreemption enables preemption of containers from tenant groups
	// above their instantaneous weighted fair share when another group is
	// starved. PreemptionInterval is how often the check runs;
	// PreemptionStarvation is how long a group must remain starved before
	// containers are actually killed for it (0 = immediately).
	FairPreemption       bool
	PreemptionInterval   time.Duration
	PreemptionStarvation time.Duration
	// Chaos, when set, injects faults into container launch and execution
	// (nil means no injection).
	Chaos *chaos.Plane
	// Timeline, when set, receives allocation, container-stop and node
	// events (nil records nothing).
	Timeline *timeline.Journal
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.NodesPerRack <= 0 {
		c.NodesPerRack = 8
	}
	if c.NodeResource.IsZero() {
		c.NodeResource = Resource{MemoryMB: 8192, VCores: 8}
	}
	if c.ScheduleInterval <= 0 {
		c.ScheduleInterval = 500 * time.Microsecond
	}
	if c.NodeLocalityDelay <= 0 {
		c.NodeLocalityDelay = 2
	}
	if c.RackLocalityDelay <= 0 {
		c.RackLocalityDelay = 2
	}
	if c.PreemptionInterval <= 0 {
		c.PreemptionInterval = 5 * time.Millisecond
	}
	return c
}

// NodeID identifies a cluster node.
type NodeID string

// ContainerID identifies a container.
type ContainerID int64

// AppID identifies an application.
type AppID int64

// Node is a simulated cluster machine.
type Node struct {
	ID   NodeID
	Rack string

	mu         sync.Mutex
	capacity   Resource
	used       Resource
	live       bool
	containers map[ContainerID]*Container

	// Scheduler state, guarded by rm.mu (see shards.go): a mirror of the
	// free capacity plus the node's position in its rack shard, so
	// placement never takes n.mu. shard is nil while the node is down.
	schedAvail Resource
	shard      *rackShard
	shardIdx   int
}

// Live reports whether the node is up.
func (n *Node) Live() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.live
}

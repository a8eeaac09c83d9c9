// Package am implements the Tez orchestration framework: the YARN
// Application Master of §4 that executes DAGs on the cluster. It contains
// the DAG/vertex/task/attempt state machines (declarative transition
// tables on internal/fsm; see lifecycle.go), the task scheduler with
// container reuse and sessions (§4.2), VertexManagers and
// DataSourceInitializers for runtime DAG evolution (§3.4–3.5), locality-
// aware scheduling with delay scheduling, speculative execution, fault
// tolerance through task re-execution with InputFailed retraction and
// cascading recovery bounded by reliable edges, out-of-order-scheduling
// deadlock preemption, the per-container shared object registry, and AM
// checkpoint/recovery (§4.3).
package am

import (
	"time"

	"tez/internal/chaos"
	"tez/internal/timeline"
)

// Config tunes a session (and the DAGs it runs).
type Config struct {
	// Name identifies the session's YARN application.
	Name string
	// Tenant, when set, registers the application under that tenant's
	// scheduling group: its apps share the tenant's weighted fair share
	// and memory quota (cluster.SetTenant) instead of competing
	// individually. The session's timeline streams are tagged with the
	// tenant so per-tenant traces can be filtered from a shared journal.
	Tenant string
	// MaxTaskAttempts bounds re-execution of a failing task (default 4).
	MaxTaskAttempts int
	// DisableContainerReuse releases each container after a single task
	// (the MapReduce behaviour; ablation knob for §4.2).
	DisableContainerReuse bool
	// ContainerIdleRelease is how long an idle reusable container is held
	// before being returned to YARN (default 25ms at simulation scale).
	ContainerIdleRelease time.Duration
	// PrewarmContainers asks the session to launch this many containers
	// before the first DAG arrives (§4.2, Sessions).
	PrewarmContainers int

	// Speculation enables straggler mitigation (§4.2).
	Speculation bool
	// SpeculationInterval is the straggler check period (default 5ms).
	SpeculationInterval time.Duration
	// SpeculationFactor: an attempt running longer than factor × the mean
	// completed-task runtime of its vertex is a straggler (default 3).
	SpeculationFactor float64

	// SlowStartMin/Max control shuffle consumer scheduling: consumers are
	// scheduled proportionally as the source-complete fraction moves from
	// Min to Max (defaults 0.25 / 0.75; 1/1 makes consumers wait for all
	// sources, the no-slow-start ablation).
	SlowStartMin float64
	SlowStartMax float64

	// DisableAutoParallelism turns off the ShuffleVertexManager's runtime
	// partition-cardinality estimation (Figure 6; ablation knob).
	DisableAutoParallelism bool

	// ShuffleFetchParallelism sets the per-task shuffle fetcher-pool size
	// (parallel fetcher goroutines per consumer, the fetcher threads of
	// real Tez). Zero means the library default (4); 1 or less forces
	// serial fetching (the ablation setting for §3.4 overlap).
	ShuffleFetchParallelism int
	// ShuffleCodec names the wire block codec for shuffle partitions
	// ("none", "flate"). Empty means "none"; a per-edge
	// library.OrderedPartitionedConfig.Codec takes precedence.
	ShuffleCodec string

	// CheckpointPath, when set, makes DAG runs checkpoint their state to
	// the DFS under this directory after every vertex completion so a new
	// AM can recover (§4.3).
	CheckpointPath string

	// NodeMaxTaskFailures blacklists a node once that many genuine attempt
	// failures — or that many fetch-failure retractions — have been
	// attributed to it (default 3). Casualties (container kills, input-
	// error kills, failures racing a node loss) never count. A value no
	// run reaches (above tasks × MaxTaskAttempts) is the no-blacklisting
	// ablation.
	NodeMaxTaskFailures int

	// Chaos, when set, lets the chaos plane crash the AM between vertex
	// completions (§4.3 AM recovery drill). Data-plane injection is wired
	// separately via platform.Config.Chaos — usually the same plane.
	Chaos *chaos.Plane

	// Timeline, when set, receives structured lifecycle events from the
	// AM: DAG/vertex/task-attempt transitions, scheduler allocation spans,
	// container reuse, blacklist actions. Nil records nothing (the
	// production default). Data-plane events (cluster allocation, shuffle
	// fetches) are wired separately via platform.Config.Timeline — usually
	// the same journal.
	Timeline *timeline.Journal
	// Clock supplies time to the AM's node-health decay and scheduler
	// wait accounting. Nil means time.Now; inject a fake for
	// deterministic tests (pair it with timeline.WithClock so journal
	// stamps agree).
	Clock timeline.Clock
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "tez-session"
	}
	if c.MaxTaskAttempts <= 0 {
		c.MaxTaskAttempts = 4
	}
	if c.ContainerIdleRelease <= 0 {
		c.ContainerIdleRelease = 25 * time.Millisecond
	}
	if c.SpeculationInterval <= 0 {
		c.SpeculationInterval = 5 * time.Millisecond
	}
	if c.SpeculationFactor <= 1 {
		c.SpeculationFactor = 3
	}
	if c.SlowStartMin <= 0 && c.SlowStartMax <= 0 {
		c.SlowStartMin, c.SlowStartMax = 0.25, 0.75
	}
	if c.SlowStartMax < c.SlowStartMin {
		c.SlowStartMax = c.SlowStartMin
	}
	if c.NodeMaxTaskFailures <= 0 {
		c.NodeMaxTaskFailures = 3
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

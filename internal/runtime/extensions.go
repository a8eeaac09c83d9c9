package runtime

import (
	"tez/internal/dfs"
	"tez/internal/event"
	"tez/internal/mailbox"
	"tez/internal/plugin"
)

// This file defines the two AM-side pluggable entities of the Tez model:
// DataSourceInitializers (§3.5), which run in the AM before a vertex's
// tasks to decide the optimal read pattern, and DataSinkCommitters (§3.1),
// which run once after vertex success to make output visible.

// InitializerContext is the framework context an initializer runs with.
type InitializerContext struct {
	DAG    string
	Vertex string
	Source string
	// Payload is the initializer descriptor's opaque configuration.
	Payload []byte
	// FS and ClusterNodes give access to data distribution and compute
	// capacity for split planning.
	FS           *dfs.FileSystem
	ClusterNodes []string
	// Events delivers InputInitializerEvents from succeeded tasks of other
	// vertices — the dynamic partition pruning channel. The AM publishes a
	// task's events when an attempt of it succeeds, so a task that is
	// re-executed and succeeds again sends its events again.
	Events *mailbox.Mailbox[event.InputInitializerEvent]
	// VertexParallelism blocks until the named vertex's task count is
	// decided and returns it (-1 if the DAG ends first). Initializers use
	// it to learn how many pruning events to expect.
	VertexParallelism func(vertex string) int
	// Stop is closed when the DAG is torn down.
	Stop <-chan struct{}
}

// InitializerResult tells the AM how to configure the vertex.
type InitializerResult struct {
	// Parallelism sets the vertex task count (-1 keeps the DAG value).
	Parallelism int
	// PerTaskPayload[i] is delivered to task i's root input as a
	// RootInputDataInformation event (e.g. its split assignment).
	PerTaskPayload [][]byte
	// LocationHints[i] optionally lists preferred hosts for task i.
	LocationHints [][]string
}

// Initializer computes the read pattern for a data source at runtime.
type Initializer interface {
	Run(ctx *InitializerContext) (*InitializerResult, error)
}

// RegisterInitializer installs an initializer factory.
func RegisterInitializer(name string, f func() Initializer) {
	plugin.Register(plugin.KindInitializer, name, f)
}

// CommitContext is handed to a committer after its vertex succeeds.
type CommitContext struct {
	DAG    string
	Vertex string
	Sink   string
	// Payload is the committer descriptor's opaque configuration.
	Payload []byte
	FS      *dfs.FileSystem
	// Parallelism is the final task count of the vertex;
	// SuccessfulAttempt[i] is the attempt number whose output to commit.
	Parallelism       int
	SuccessfulAttempt map[int]int
}

// Committer finalises a data sink exactly once (§3.1: "guaranteed to be
// done once, and typically involves making the output visible to external
// observers").
type Committer interface {
	Commit(ctx *CommitContext) error
}

// RegisterCommitter installs a committer factory.
func RegisterCommitter(name string, f func() Committer) {
	plugin.Register(plugin.KindCommitter, name, f)
}

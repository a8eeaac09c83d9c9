// Package runtime implements the Tez Runtime API (§3.2): the Input,
// Processor and Output interfaces that compose a task, the contexts through
// which the framework configures them (opaque payloads) and lets them
// exchange control events, and the in-container task runner that wires a
// TaskSpec to live IPO objects and executes it.
//
// Tez itself stays off the data plane: the runner never looks at data, it
// only instantiates the application-chosen IPO classes and routes their
// control events.
package runtime

import (
	"errors"
	"fmt"

	"tez/internal/dfs"
	"tez/internal/event"
	"tez/internal/metrics"
	"tez/internal/plugin"
	"tez/internal/security"
	"tez/internal/shuffle"
	"tez/internal/timeline"
)

// Meta identifies the task attempt an entity belongs to.
type Meta struct {
	DAG     string
	Vertex  string
	Task    int
	Attempt int
	// VertexParallelism is the task count of this vertex (for
	// partition-aware processors).
	VertexParallelism int
}

// ID renders a compact attempt id.
func (m Meta) ID() string {
	return fmt.Sprintf("%s/%s/t%03d_a%d", m.DAG, m.Vertex, m.Task, m.Attempt)
}

// Services exposes the per-container environment: the data services of the
// simulated Hadoop cluster, the node identity (for locality-aware IO), the
// container's shared object registry (§4.2) and task counters.
type Services struct {
	FS       *dfs.FileSystem
	Shuffle  *shuffle.Service
	Node     string
	Registry *ObjectRegistry
	Counters *metrics.Counters
	// Token is the DAG's shuffle-access credential on secure clusters
	// (§4.3); nil when security is off.
	Token security.Token
	// FetchParallelism and Codec carry the session's two shuffle knobs
	// (am.Config.Shuffle*, which documents their values) to the library,
	// which resolves the codec against the per-edge payload and both
	// against its own defaults.
	FetchParallelism int
	Codec            string
	// Timeline, when set, receives data-plane spans (sort spills, run
	// merges) from this task's shuffle transports; nil records nothing.
	Timeline *timeline.Journal
}

// Context is handed to every Input, Processor and Output at Initialize.
type Context struct {
	Meta     Meta
	Services Services
	// Payload is this entity's opaque configuration from its descriptor.
	Payload []byte
	// Name is the input/output name: for edge IO it is the peer vertex
	// name; for data sources/sinks it is the source/sink name.
	Name string
	// PhysicalCount is the number of physical inputs (for an Input) or
	// outputs (for an Output) as computed by the edge manager.
	PhysicalCount int
	// Emit sends a control event to the AM (asynchronous, never blocks).
	// DataMovement, VertexManager and InputInitializer events reach their
	// targets only if this attempt succeeds, in the order they were sent.
	Emit func(event.Event)
	// Stop is closed when the attempt is being killed; long operations
	// should observe it at I/O boundaries.
	Stop <-chan struct{}
}

// Input is the consumer side of an edge or a data source reader.
type Input interface {
	Initialize(ctx *Context) error
	// HandleEvent delivers a routed control event (DataMovement,
	// RootInputDataInformation, InputFailed).
	HandleEvent(ev event.Event) error
	// Start begins any background work (e.g. shuffle fetches may begin
	// before all producers finish — the overlap of §3.4).
	Start() error
	// Reader returns the data reader. Its concrete type is part of the
	// input/output compatibility contract (Tez is data-format agnostic);
	// processors type-assert to the format they expect.
	Reader() (any, error)
	Close() error
}

// Output is the producer side of an edge or a data sink writer.
type Output interface {
	Initialize(ctx *Context) error
	// Writer returns the data writer; processors type-assert it.
	Writer() (any, error)
	// Close finalises the output and returns the control events announcing
	// produced data (typically DataMovement events carrying metadata such
	// as a shuffle output id — the "access URL" of §3.3).
	Close() ([]event.Event, error)
}

// Processor hosts the application logic of a vertex task.
type Processor interface {
	Initialize(ctx *Context) error
	// Run consumes the named inputs and produces the named outputs.
	Run(inputs map[string]Input, outputs map[string]Output) error
	Close() error
}

// RegisterProcessor, RegisterInput and RegisterOutput install factories;
// plugin.New instantiates them.
func RegisterProcessor(name string, f func() Processor) {
	plugin.Register(plugin.KindProcessor, name, f)
}

// RegisterInput installs an input factory.
func RegisterInput(name string, f func() Input) { plugin.Register(plugin.KindInput, name, f) }

// RegisterOutput installs an output factory.
func RegisterOutput(name string, f func() Output) { plugin.Register(plugin.KindOutput, name, f) }

// InputReadError marks a task failure caused by unreadable upstream data.
// The runner converts it into an event.InputReadError so the AM re-executes
// the producer instead of blaming this attempt (§4.3).
type InputReadError struct {
	InputName  string
	SrcVertex  string
	SrcTask    int
	SrcAttempt int
	Err        error
}

// Error implements error.
func (e *InputReadError) Error() string {
	return fmt.Sprintf("input %s: data of %s task %d attempt %d unreadable: %v",
		e.InputName, e.SrcVertex, e.SrcTask, e.SrcAttempt, e.Err)
}

// Unwrap exposes the cause.
func (e *InputReadError) Unwrap() error { return e.Err }

// AsInputReadError extracts an InputReadError from an error chain.
func AsInputReadError(err error) (*InputReadError, bool) {
	var ire *InputReadError
	if errors.As(err, &ire) {
		return ire, true
	}
	return nil, false
}

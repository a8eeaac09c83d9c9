// Package event defines the control-plane event vocabulary of §3.3: an
// asynchronous, push-based channel over which the framework, application
// code in tasks, vertex managers and input initializers exchange control
// metadata. Every payload is opaque to the framework — Tez only routes.
package event

// Event is any control-plane message. Concrete types below cover the
// paper's event kinds; payloads are opaque bytes interpreted by sender and
// receiver only.
type Event interface{ isEvent() }

// DataMovement is generated by a producer task's output when data becomes
// available and is routed by the edge's EdgeManager to the consuming
// task's input (Figure 5). Source fields are set by the emitting output;
// Target fields are filled in by the framework's router.
type DataMovement struct {
	// Source (set by the producing output).
	SrcVertex      string
	SrcTask        int
	SrcAttempt     int
	SrcOutputIndex int // physical output index, e.g. the partition number

	// Target (set by the router from the edge's connection pattern).
	TargetVertex     string
	TargetTask       int
	TargetInput      string // input name at the consumer (= source vertex name)
	TargetInputIndex int    // physical input index at the consumer

	// Payload carries app metadata, e.g. a shuffle OutputID ("access URL").
	Payload []byte
}

// InputReadError is sent by a consuming input that failed to read its
// data. The framework uses the DAG dependency to find and re-execute the
// producer task (§4.3).
type InputReadError struct {
	// Consumer coordinates.
	Vertex    string
	Task      int
	InputName string
	// The producer whose data was lost, as known from the original
	// DataMovement metadata.
	SrcVertex  string
	SrcTask    int
	SrcAttempt int
	Reason     string
}

// VertexManagerEvent carries application statistics from tasks to the
// VertexManager of a target vertex (e.g. per-partition output sizes for
// the ShuffleVertexManager's parallelism estimate, Figure 6).
type VertexManagerEvent struct {
	TargetVertex string
	SrcVertex    string
	SrcTask      int
	Payload      []byte
}

// InputInitializerEvent carries application metadata from tasks to the
// DataSourceInitializer of (vertex, dataSource) — the mechanism behind
// Hive's dynamic partition pruning (§3.5).
type InputInitializerEvent struct {
	TargetVertex     string
	TargetDataSource string
	SrcVertex        string
	SrcTask          int
	Payload          []byte
}

// RootInputDataInformation is sent by the framework (on behalf of a data
// source initializer) to a specific task, telling its root input what to
// read — the split assignment.
type RootInputDataInformation struct {
	TargetVertex string
	TargetTask   int
	InputName    string
	Payload      []byte
}

// InputFailed informs a consumer input that a producer attempt's earlier
// DataMovement is obsolete (producer re-executed); the input should
// discard state for that attempt and await the replacement DataMovement.
type InputFailed struct {
	TargetVertex     string
	TargetTask       int
	TargetInput      string
	TargetInputIndex int
	SrcTask          int
	SrcAttempt       int
}

func (DataMovement) isEvent()             {}
func (InputReadError) isEvent()           {}
func (VertexManagerEvent) isEvent()       {}
func (InputInitializerEvent) isEvent()    {}
func (RootInputDataInformation) isEvent() {}
func (InputFailed) isEvent()              {}

// Package dag implements the Tez DAG API (§3.1): vertices carrying a
// user-supplied processor, edges whose connection pattern (one-to-one,
// broadcast, scatter-gather, or a custom EdgeManager plugin) and transport
// (the input/output descriptor pair) are specified separately, plus
// first-class data sources (with initializers) and data sinks (with
// committers). The package also performs the logical→physical expansion
// bookkeeping of Figure 2 via the EdgeManager routing interfaces.
package dag

import (
	"fmt"

	"tez/internal/cluster"
	"tez/internal/plugin"
)

// MovementType is the logical connection pattern of an edge (Figure 3).
type MovementType int

const (
	// OneToOne connects source task i to destination task i.
	OneToOne MovementType = iota
	// Broadcast sends every source task's output to every destination task.
	Broadcast
	// ScatterGather partitions every source task's output and sends
	// partition p to the destination task(s) owning p (the shuffle).
	ScatterGather
	// CustomMovement delegates routing to the edge's EdgeManager plugin.
	CustomMovement
)

func (m MovementType) String() string {
	switch m {
	case OneToOne:
		return "ONE_TO_ONE"
	case Broadcast:
		return "BROADCAST"
	case ScatterGather:
		return "SCATTER_GATHER"
	default:
		return "CUSTOM"
	}
}

// SchedulingType says when destination tasks may be scheduled relative to
// their source tasks.
type SchedulingType int

const (
	// Sequential destinations start after sources complete (subject to
	// slow-start, which may schedule them early to overlap the fetch).
	Sequential SchedulingType = iota
	// Concurrent destinations may run at the same time as sources.
	Concurrent
)

// DataSourceType describes the resilience of edge data (§4.3): ephemeral
// data dies with its producing task's machine and triggers re-execution
// cascades; reliable data is a barrier to such cascades.
type DataSourceType int

const (
	// Ephemeral: intermediate data is lost if the producer's node dies.
	Ephemeral DataSourceType = iota
	// Reliable: data survives node loss (e.g. stored in the DFS).
	Reliable
)

// EdgeProperty bundles the logical (movement, scheduling, resilience) and
// physical (output/input descriptor pair) aspects of an edge.
type EdgeProperty struct {
	Movement   MovementType
	Scheduling SchedulingType
	Resilience DataSourceType
	// Output is the producer-side output class; Input is the consumer-side
	// input class. They must be a compatible pair (§3.1): the built-in
	// pairs come from the constructors in internal/library (OrderedEdge,
	// BroadcastEdge, …), and only an application with its own IO classes
	// fills them in by hand.
	Output plugin.Descriptor
	Input  plugin.Descriptor
	// Manager configures a custom EdgeManager (Movement == CustomMovement).
	Manager plugin.Descriptor
}

// Edge connects two vertices of the DAG.
type Edge struct {
	From     string
	To       string
	Property EdgeProperty
}

// DataSource is a first-class initial input of a vertex (§3.5). The
// optional Initializer runs in the AM before the vertex starts, decides
// the read pattern (splits) and may set the vertex parallelism.
type DataSource struct {
	Name        string
	Input       plugin.Descriptor
	Initializer plugin.Descriptor
}

// DataSink is a final output of a vertex. The optional Committer runs
// once, after vertex success, to make output visible (§3.1).
type DataSink struct {
	Name      string
	Output    plugin.Descriptor
	Committer plugin.Descriptor
}

// Vertex is a logical processing step.
type Vertex struct {
	Name string
	// Processor holds the application logic run by each task.
	Processor plugin.Descriptor
	// Parallelism is the number of tasks; -1 means decided at runtime by
	// an initializer or the vertex manager.
	Parallelism int
	// Resource per task. Zero means the AM default.
	Resource cluster.Resource
	// Manager optionally names the VertexManager controlling this vertex;
	// unset picks a built-in by vertex characteristics (§3.4).
	Manager plugin.Descriptor
	// LocationHints optionally pins task i near LocationHints[i].
	LocationHints [][]string

	Sources []DataSource
	Sinks   []DataSink
}

// DAG is a logical directed acyclic graph of vertices.
type DAG struct {
	Name     string
	Vertices []*Vertex
	Edges    []*Edge

	byName map[string]*Vertex
}

// New creates an empty DAG.
func New(name string) *DAG {
	return &DAG{Name: name, byName: map[string]*Vertex{}}
}

// AddVertex adds a vertex with the given processor and static parallelism
// (-1 for runtime-determined) and returns it for chaining.
func (d *DAG) AddVertex(name string, processor plugin.Descriptor, parallelism int) *Vertex {
	v := &Vertex{Name: name, Processor: processor, Parallelism: parallelism}
	d.Vertices = append(d.Vertices, v)
	d.byName[name] = v
	return v
}

// Vertex returns the named vertex, or nil.
func (d *DAG) Vertex(name string) *Vertex {
	if d.byName == nil {
		d.byName = map[string]*Vertex{}
		for _, v := range d.Vertices {
			d.byName[v.Name] = v
		}
	}
	return d.byName[name]
}

// Connect adds an edge from → to with the given property.
func (d *DAG) Connect(from, to *Vertex, p EdgeProperty) *Edge {
	e := &Edge{From: from.Name, To: to.Name, Property: p}
	d.Edges = append(d.Edges, e)
	return e
}

// InEdges returns edges whose destination is the named vertex.
func (d *DAG) InEdges(name string) []*Edge {
	var out []*Edge
	for _, e := range d.Edges {
		if e.To == name {
			out = append(out, e)
		}
	}
	return out
}

// OutEdges returns edges whose source is the named vertex.
func (d *DAG) OutEdges(name string) []*Edge {
	var out []*Edge
	for _, e := range d.Edges {
		if e.From == name {
			out = append(out, e)
		}
	}
	return out
}

// Validate checks structural soundness: non-empty, unique vertex names,
// processors set, edges referencing known vertices, no self or duplicate
// edges, complete transport descriptors, one-to-one parallelism agreement,
// custom movement having a manager, and acyclicity.
func (d *DAG) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("dag: empty name")
	}
	if len(d.Vertices) == 0 {
		return fmt.Errorf("dag %s: no vertices", d.Name)
	}
	seen := map[string]bool{}
	for _, v := range d.Vertices {
		if v.Name == "" {
			return fmt.Errorf("dag %s: vertex with empty name", d.Name)
		}
		if seen[v.Name] {
			return fmt.Errorf("dag %s: duplicate vertex %q", d.Name, v.Name)
		}
		seen[v.Name] = true
		if v.Processor.IsZero() {
			return fmt.Errorf("dag %s: vertex %q has no processor", d.Name, v.Name)
		}
		if v.Parallelism == 0 || v.Parallelism < -1 {
			return fmt.Errorf("dag %s: vertex %q has invalid parallelism %d", d.Name, v.Name, v.Parallelism)
		}
		srcNames := map[string]bool{}
		for _, s := range v.Sources {
			if s.Input.IsZero() {
				return fmt.Errorf("dag %s: data source %q of %q has no input", d.Name, s.Name, v.Name)
			}
			if srcNames[s.Name] {
				return fmt.Errorf("dag %s: duplicate data source %q on %q", d.Name, s.Name, v.Name)
			}
			srcNames[s.Name] = true
		}
		for _, s := range v.Sinks {
			if s.Output.IsZero() {
				return fmt.Errorf("dag %s: data sink %q of %q has no output", d.Name, s.Name, v.Name)
			}
		}
	}
	type pair struct{ from, to string }
	edges := map[pair]bool{}
	for _, e := range d.Edges {
		if !seen[e.From] || !seen[e.To] {
			return fmt.Errorf("dag %s: edge %s->%s references unknown vertex", d.Name, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("dag %s: self edge on %s", d.Name, e.From)
		}
		p := pair{e.From, e.To}
		if edges[p] {
			return fmt.Errorf("dag %s: duplicate edge %s->%s", d.Name, e.From, e.To)
		}
		edges[p] = true
		if e.Property.Output.IsZero() || e.Property.Input.IsZero() {
			return fmt.Errorf("dag %s: edge %s->%s missing transport descriptors", d.Name, e.From, e.To)
		}
		if e.Property.Movement == CustomMovement && e.Property.Manager.IsZero() {
			return fmt.Errorf("dag %s: custom edge %s->%s has no edge manager", d.Name, e.From, e.To)
		}
		if e.Property.Movement == OneToOne {
			f, t := d.Vertex(e.From), d.Vertex(e.To)
			if f.Parallelism > 0 && t.Parallelism > 0 && f.Parallelism != t.Parallelism {
				return fmt.Errorf("dag %s: one-to-one edge %s->%s with parallelism %d != %d",
					d.Name, e.From, e.To, f.Parallelism, t.Parallelism)
			}
		}
	}
	if _, err := d.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns vertex names in a topological order (stable with
// respect to declaration order among independent vertices) or an error if
// the graph has a cycle.
func (d *DAG) TopoOrder() ([]string, error) {
	indeg := map[string]int{}
	for _, v := range d.Vertices {
		indeg[v.Name] = 0
	}
	for _, e := range d.Edges {
		indeg[e.To]++
	}
	var order []string
	remaining := len(d.Vertices)
	done := map[string]bool{}
	for remaining > 0 {
		progressed := false
		for _, v := range d.Vertices {
			if done[v.Name] || indeg[v.Name] != 0 {
				continue
			}
			done[v.Name] = true
			order = append(order, v.Name)
			remaining--
			progressed = true
			for _, e := range d.OutEdges(v.Name) {
				indeg[e.To]--
			}
		}
		if !progressed {
			return nil, fmt.Errorf("dag %s: cycle detected", d.Name)
		}
	}
	return order, nil
}

package relop

import (
	"fmt"

	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/plugin"
)

// Config tunes compilation.
type Config struct {
	// DefaultPartitions is the submitted parallelism of shuffle consumers
	// (shrunk at runtime by the ShuffleVertexManager on Tez).
	DefaultPartitions int
	// SplitSize is the DesiredSplitSize of every scan's split initializer:
	// 0 lets the library group splits into tasks by bytes and locality,
	// > 0 fixes one task per split of that size.
	SplitSize int64
	// DisableRegistryCache turns off object-registry sharing of broadcast
	// hash tables (ablation).
	DisableRegistryCache bool
	// TempRoot hosts MR-chain intermediate data.
	TempRoot string
}

func (c Config) withDefaults() Config {
	if c.DefaultPartitions <= 0 {
		c.DefaultPartitions = 4
	}
	if c.TempRoot == "" {
		c.TempRoot = "/tmp/relop"
	}
	return c
}

// sortParallelism is the task count of a global sort: one task writes the
// whole ordered result.
const sortParallelism = 1

// bStage is a stage under construction.
type bStage struct {
	name    string
	grouped bool
	spec    StageSpec
	sources []dag.DataSource
	sinks   []dag.DataSink
	par     int // grouped stages; map stages are split-driven (-1)
	// inEdges: (producer stage, movement); deduplicated per producer.
	inEdges []*bEdge
	// vm overrides the stage's vertex manager (pig's range partitioning).
	vm plugin.Descriptor
}

type bEdge struct {
	from     *bStage
	to       *bStage
	movement dag.MovementType
}

// cursor is "rows of some node are available on stage st, input stream
// `input` (” = group output), after applying pipe".
type cursor struct {
	st    *bStage
	input string
	pipe  []PipeOp
}

func (c cursor) with(op PipeOp) cursor {
	pipe := make([]PipeOp, len(c.pipe)+1)
	copy(pipe, c.pipe)
	pipe[len(c.pipe)] = op
	return cursor{st: c.st, input: c.input, pipe: pipe}
}

// Compiler lowers plan DAGs to stage graphs.
type Compiler struct {
	cfg     Config
	memo    map[*Node][]cursor
	stages  []*bStage
	seq     int
	sinkSeq int
	pending []pendingPrune
	// forMR rejects Tez-only features (broadcast joins, pruning).
	forMR bool
}

// NewCompiler creates a compiler.
func NewCompiler(cfg Config) *Compiler {
	return &Compiler{cfg: cfg.withDefaults(), memo: map[*Node][]cursor{}}
}

func (c *Compiler) newStage(kind string) *bStage {
	c.seq++
	st := &bStage{name: fmt.Sprintf("s%02d_%s", c.seq, kind), par: -1}
	c.stages = append(c.stages, st)
	return st
}

// edge registers (or reuses) an edge between stages.
func (c *Compiler) edge(from, to *bStage, movement dag.MovementType) error {
	for _, e := range to.inEdges {
		if e.from == from {
			if e.movement != movement {
				return fmt.Errorf("relop: conflicting movements on edge %s->%s", from.name, to.name)
			}
			return nil
		}
	}
	to.inEdges = append(to.inEdges, &bEdge{from: from, to: to, movement: movement})
	// The consumer reads the edge under the producer vertex's name; only
	// hash-join build sides travel by broadcast.
	mode := InGrouped
	if movement == dag.Broadcast {
		mode = InBuild
	}
	to.spec.Inputs = append(to.spec.Inputs, StageInput{Name: from.name, Mode: mode})
	return nil
}

// compile lowers a node (memoized: shared sub-plans compile once and fan
// their stage output out to every consumer).
func (c *Compiler) compile(n *Node) ([]cursor, error) {
	if cs, ok := c.memo[n]; ok {
		return cs, nil
	}
	cs, err := c.compileNew(n)
	if err != nil {
		return nil, err
	}
	c.memo[n] = cs
	return cs, nil
}

func (c *Compiler) compileNew(n *Node) ([]cursor, error) {
	switch n.Op {
	case "scan":
		return c.compileScan(n)
	case "filter":
		in, err := c.compile(n.Children[0])
		if err != nil {
			return nil, err
		}
		return withAll(in, PipeOp{Kind: "filter", Filter: n.Filter}), nil
	case "project":
		in, err := c.compile(n.Children[0])
		if err != nil {
			return nil, err
		}
		return withAll(in, PipeOp{Kind: "project", Project: n.Exprs}), nil
	case "join":
		if n.Broadcast {
			return c.compileBroadcastJoin(n)
		}
		return c.compileShuffleJoin(n)
	case "agg":
		return c.compileAgg(n)
	case "sort":
		return c.compileSort(n)
	case "rangesort":
		return c.compileRangeSort(n)
	case "skewjoin":
		return c.compileSkewJoin(n)
	case "distinct":
		return c.compileDistinct(n)
	case "union":
		var all []cursor
		for _, ch := range n.Children {
			cs, err := c.compile(ch)
			if err != nil {
				return nil, err
			}
			all = append(all, cs...)
		}
		return all, nil
	case "store":
		return nil, fmt.Errorf("relop: store compiled via root path")
	}
	return nil, fmt.Errorf("relop: cannot compile op %q", n.Op)
}

func withAll(cs []cursor, op PipeOp) []cursor {
	out := make([]cursor, len(cs))
	for i, cur := range cs {
		out[i] = cur.with(op)
	}
	return out
}

func (c *Compiler) compileScan(n *Node) ([]cursor, error) {
	st := c.newStage("scan_" + n.Table.Name)
	src := library.DFSSource("src", n.Table.Files, c.cfg.SplitSize)
	if n.Prune != nil {
		if c.forMR {
			return nil, fmt.Errorf("relop: dynamic partition pruning requires the Tez backend")
		}
		// Wired later (the prune source's stage name is needed); record a
		// placeholder resolved in finishPruning.
		c.pending = append(c.pending, pendingPrune{node: n, stage: st})
		src.Initializer = plugin.Descriptor{Name: PruneInitializerName}
	}
	st.sources = append(st.sources, src)
	st.spec.Inputs = append(st.spec.Inputs, StageInput{Name: "src", Mode: InSource})
	// Scan-level filter (predicate pushdown) starts the pipe.
	var pipe []PipeOp
	if n.Filter != nil {
		pipe = []PipeOp{{Kind: "filter", Filter: n.Filter}}
	}
	return []cursor{{st: st, input: "src", pipe: pipe}}, nil
}

func (c *Compiler) compileShuffleJoin(n *Node) ([]cursor, error) {
	left, err := c.compile(n.Children[0])
	if err != nil {
		return nil, err
	}
	right, err := c.compile(n.Children[1])
	if err != nil {
		return nil, err
	}
	st := c.newStage("join")
	st.grouped = true
	st.par = c.cfg.DefaultPartitions
	st.spec.Group = &GroupOp{Kind: "join", Sides: 2}
	emitSide := func(curs []cursor, keys []*Expr, tag int) error {
		for _, cur := range curs {
			cur.st.spec.Emits = append(cur.st.spec.Emits, EmitSpec{
				Input: cur.input, Output: st.name, Kind: EmitShuffle,
				Pipe: cur.pipe, Keys: keys, Tag: tag,
			})
			if err := c.edge(cur.st, st, dag.ScatterGather); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emitSide(left, n.JoinL, 0); err != nil {
		return nil, err
	}
	if err := emitSide(right, n.JoinR, 1); err != nil {
		return nil, err
	}
	return []cursor{{st: st}}, nil
}

func (c *Compiler) compileBroadcastJoin(n *Node) ([]cursor, error) {
	if c.forMR {
		return nil, fmt.Errorf("relop: broadcast join requires the Tez backend")
	}
	probe, err := c.compile(n.Children[0])
	if err != nil {
		return nil, err
	}
	build, err := c.compile(n.Children[1])
	if err != nil {
		return nil, err
	}
	if len(build) != 1 {
		return nil, fmt.Errorf("relop: broadcast join build side must be a single stream")
	}
	out := make([]cursor, 0, len(probe))
	for _, pc := range probe {
		for _, bc := range build {
			bc.st.spec.Emits = append(bc.st.spec.Emits, EmitSpec{
				Input: bc.input, Output: pc.st.name, Kind: EmitBroadcast,
				Pipe: bc.pipe, Tag: -1,
			})
			if err := c.edge(bc.st, pc.st, dag.Broadcast); err != nil {
				return nil, err
			}
			// Key the auto-added build input.
			for i := range pc.st.spec.Inputs {
				if pc.st.spec.Inputs[i].Name == bc.st.name {
					pc.st.spec.Inputs[i].BuildKeys = n.JoinR
					pc.st.spec.Inputs[i].CacheInRegistry = !c.cfg.DisableRegistryCache
				}
			}
			pc = pc.with(PipeOp{Kind: "hashjoin", HJ: &HashJoinSpec{
				Input: bc.st.name, ProbeKeys: n.JoinL,
			}})
		}
		out = append(out, pc)
	}
	return out, nil
}

func (c *Compiler) compileAgg(n *Node) ([]cursor, error) {
	in, err := c.compile(n.Children[0])
	if err != nil {
		return nil, err
	}
	gw := len(n.GroupBy)
	// Map side projects [group..., args...]; key = leading group columns.
	project := append([]*Expr{}, n.GroupBy...)
	aggs := make([]AggFuncSpec, len(n.Aggs))
	for i, a := range n.Aggs {
		arg := a.Arg
		if arg == nil {
			arg = LitInt(1)
		}
		project = append(project, arg)
		aggs[i] = AggFuncSpec{Func: a.Func, Col: gw + i}
	}
	keys := make([]*Expr, gw)
	for i := range keys {
		keys[i] = Col(i)
	}
	st := c.newStage("agg")
	st.grouped = true
	st.par = c.cfg.DefaultPartitions
	st.spec.Group = &GroupOp{Kind: "agg", GroupWidth: gw, Aggs: aggs}
	for _, cur := range in {
		pipe := append(append([]PipeOp{}, cur.pipe...), PipeOp{Kind: "project", Project: project})
		cur.st.spec.Emits = append(cur.st.spec.Emits, EmitSpec{
			Input: cur.input, Output: st.name, Kind: EmitShuffle,
			Pipe: pipe, Keys: keys, Tag: -1,
		})
		if err := c.edge(cur.st, st, dag.ScatterGather); err != nil {
			return nil, err
		}
	}
	return []cursor{{st: st}}, nil
}

func (c *Compiler) compileSort(n *Node) ([]cursor, error) {
	in, err := c.compile(n.Children[0])
	if err != nil {
		return nil, err
	}
	st := c.newStage("sort")
	st.grouped = true
	st.par = sortParallelism
	st.spec.Group = &GroupOp{Kind: "sort", Limit: n.Limit}
	for _, cur := range in {
		cur.st.spec.Emits = append(cur.st.spec.Emits, EmitSpec{
			Input: cur.input, Output: st.name, Kind: EmitShuffle,
			Pipe: cur.pipe, Keys: n.SortKeys, Desc: n.SortDesc, Tag: -1,
		})
		if err := c.edge(cur.st, st, dag.ScatterGather); err != nil {
			return nil, err
		}
	}
	return []cursor{{st: st}}, nil
}

func (c *Compiler) compileDistinct(n *Node) ([]cursor, error) {
	in, err := c.compile(n.Children[0])
	if err != nil {
		return nil, err
	}
	w := n.OutSchema.Width()
	keys := make([]*Expr, w)
	for i := range keys {
		keys[i] = Col(i)
	}
	st := c.newStage("distinct")
	st.grouped = true
	st.par = c.cfg.DefaultPartitions
	st.spec.Group = &GroupOp{Kind: "distinct"}
	for _, cur := range in {
		cur.st.spec.Emits = append(cur.st.spec.Emits, EmitSpec{
			Input: cur.input, Output: st.name, Kind: EmitShuffle,
			Pipe: cur.pipe, Keys: keys, Tag: -1,
		})
		if err := c.edge(cur.st, st, dag.ScatterGather); err != nil {
			return nil, err
		}
	}
	return []cursor{{st: st}}, nil
}

// compileStore attaches a DFS sink to the producing stage.
func (c *Compiler) compileStore(n *Node) error {
	in, err := c.compile(n.Children[0])
	if err != nil {
		return err
	}
	for _, cur := range in {
		c.sinkSeq++
		sinkName := fmt.Sprintf("sink%02d", c.sinkSeq)
		cur.st.sinks = append(cur.st.sinks, library.DFSSink(sinkName, n.StorePath))
		cur.st.spec.Emits = append(cur.st.spec.Emits, EmitSpec{
			Input: cur.input, Output: sinkName, Kind: EmitSink,
			Pipe: cur.pipe, Tag: -1,
		})
	}
	return nil
}

type pendingPrune struct {
	node  *Node
	stage *bStage
}

// finishPruning wires dynamic partition pruning: the prune-source stage
// emits its key values to the scan's initializer; the initializer payload
// carries the partitioned file list and the source vertex to await.
func (c *Compiler) finishPruning() error {
	for _, pp := range c.pending {
		spec := pp.node.Prune
		srcCursors, err := c.compile(spec.SourceNode)
		if err != nil {
			return err
		}
		if len(srcCursors) != 1 {
			return fmt.Errorf("relop: prune source must be a single stream")
		}
		sc := srcCursors[0]
		sc.st.spec.Emits = append(sc.st.spec.Emits, EmitSpec{
			Input: sc.input, Output: pp.stage.name, Kind: EmitInitializer,
			Pipe: sc.pipe, Keys: []*Expr{spec.KeyExpr}, Tag: -1,
			TargetSource: "src",
		})
		t := pp.node.Table
		for i := range pp.stage.sources {
			if pp.stage.sources[i].Name == "src" {
				pp.stage.sources[i].Initializer = plugin.Desc(PruneInitializerName, PruneInitializerConfig{
					Files:            t.Files,
					PartitionVals:    t.PartitionVals,
					SourceVertex:     sc.st.name,
					DesiredSplitSize: c.cfg.SplitSize,
				})
			}
		}
	}
	return nil
}

// CompileTez lowers the plan roots to a single Tez DAG.
func (c *Compiler) CompileTez(name string, roots []*Node) (*dag.DAG, error) {
	if err := Validate(roots); err != nil {
		return nil, err
	}
	for _, r := range roots {
		if err := c.compileStore(r); err != nil {
			return nil, err
		}
	}
	if err := c.finishPruning(); err != nil {
		return nil, err
	}
	return c.emitDAG(name, c.stages)
}

// emitDAG materialises stages into a dag.DAG.
func (c *Compiler) emitDAG(name string, stages []*bStage) (*dag.DAG, error) {
	d := dag.New(name)
	verts := map[*bStage]*dag.Vertex{}
	for _, st := range stages {
		par := st.par
		if !st.grouped {
			par = -1
			if len(st.sources) == 0 && len(st.inEdges) > 0 {
				// Pure edge-fed map stage (rare): single wave.
				par = 1
			}
		}
		v := d.AddVertex(st.name, plugin.Desc(StageProcessorName, st.spec), par)
		v.Sources = st.sources
		v.Sinks = st.sinks
		v.Manager = st.vm
		verts[st] = v
	}
	for _, st := range stages {
		for _, e := range st.inEdges {
			var prop dag.EdgeProperty
			switch e.movement {
			case dag.ScatterGather:
				prop = library.OrderedEdge(library.OrderedPartitionedConfig{})
			case dag.Broadcast:
				prop = library.BroadcastEdge()
			default:
				return nil, fmt.Errorf("relop: unsupported movement %v", e.movement)
			}
			d.Connect(verts[e.from], verts[e.to], prop)
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

package relop

import (
	"fmt"
	"slices"

	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/plugin"
	"tez/internal/row"
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
	// hash: a scatter-gather edge its consumer reads unsorted.
	hash bool
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
	// forMR rejects Tez-only features (broadcast joins, pruning, hash
	// edges).
	forMR bool
	use   usage
	// hashJoins holds the shuffle joins whose fused aggregate folds in
	// any order: their sides travel on hash edges.
	hashJoins map[*Node]bool
}

// NewCompiler creates a compiler.
func NewCompiler(cfg Config) *Compiler {
	return &Compiler{cfg: cfg.withDefaults(), memo: map[*Node][]cursor{}, hashJoins: map[*Node]bool{}}
}

func (c *Compiler) newStage(kind string) *bStage {
	c.seq++
	st := &bStage{name: fmt.Sprintf("s%02d_%s", c.seq, kind), par: -1}
	c.stages = append(c.stages, st)
	return st
}

// edge registers (or reuses) an ordered shuffle or a broadcast edge
// between stages. The consumer reads the edge under the producer vertex's
// name; only hash-join build sides travel by broadcast.
func (c *Compiler) edge(from, to *bStage, movement dag.MovementType) error {
	mode := InGrouped
	if movement == dag.Broadcast {
		mode = InBuild
	}
	return connect(&bEdge{from: from, to: to, movement: movement}, StageInput{Name: from.name, Mode: mode})
}

// shuffleEdge registers (or reuses) a scatter-gather edge: with hash
// set, a hash-partitioned one whose consumer keys each row by keys, the
// key its producer partitioned it by; otherwise an ordered one.
func (c *Compiler) shuffleEdge(from, to *bStage, hash bool, keys []*Expr) error {
	if !hash {
		return c.edge(from, to, dag.ScatterGather)
	}
	return connect(&bEdge{from: from, to: to, movement: dag.ScatterGather, hash: true},
		StageInput{Name: from.name, Mode: InHash, BuildKeys: keys})
}

// connect adds e and the consumer's input in unless e's producer already
// feeds e's consumer the same way.
func connect(e *bEdge, in StageInput) error {
	for _, old := range e.to.inEdges {
		if old.from == e.from {
			if old.movement != e.movement || old.hash != e.hash {
				return fmt.Errorf("relop: conflicting movements on edge %s->%s", e.from.name, e.to.name)
			}
			return nil
		}
	}
	e.to.inEdges = append(e.to.inEdges, e)
	e.to.spec.Inputs = append(e.to.spec.Inputs, in)
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
	st.spec.Inputs = append(st.spec.Inputs, StageInput{Name: "src", Mode: InTable, Cols: c.use.scanned(n)})
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
	// A hash join reads each producer's rows as one side, so a stage that
	// feeds both sides keeps the ordered edge.
	hash := c.hashJoins[n] && !sharesStage(left, right)
	// A side that does not ship every column ends its emit with a
	// projection to the shipped ones, its keys remapped onto them.
	shipL, shipR := c.use.shipped(n)
	emitSide := func(curs []cursor, keys []*Expr, ship []int, tag int) error {
		var narrow []*Expr
		if ship != nil {
			for _, k := range ship {
				narrow = append(narrow, Col(k))
			}
			keys = substituteAll(keys, within(ship))
		}
		for _, cur := range curs {
			if narrow != nil {
				cur = cur.with(PipeOp{Kind: "project", Project: narrow})
			}
			cur.st.spec.Emits = append(cur.st.spec.Emits, EmitSpec{
				Input: cur.input, Output: st.name, Kind: EmitShuffle,
				Pipe: cur.pipe, Keys: keys, Tag: tag,
			})
			if err := c.shuffleEdge(cur.st, st, hash, keys); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emitSide(left, n.JoinL, shipL, 0); err != nil {
		return nil, err
	}
	if err := emitSide(right, n.JoinR, shipR, 1); err != nil {
		return nil, err
	}
	out := cursor{st: st}
	if shipL != nil || shipR != nil {
		// The product holds the shipped columns only; the join's consumers
		// read it re-widened, a null wherever a column was not shipped.
		out.pipe = []PipeOp{{Kind: "project", Project: rewiden(n, shipL, shipR)}}
	}
	return []cursor{out}, nil
}

// sharesStage reports whether a stage emits into both lists of cursors.
func sharesStage(a, b []cursor) bool {
	for _, x := range a {
		for _, y := range b {
			if x.st == y.st {
				return true
			}
		}
	}
	return false
}

// rewiden maps the join's output columns onto its product's: side by
// side, each side's shipped columns in order, a null for the others.
func rewiden(n *Node, shipL, shipR []int) []*Expr {
	var out []*Expr
	off := 0
	for s, ship := range [][]int{shipL, shipR} {
		w := n.Children[s].OutSchema.Width()
		for c := 0; c < w; c++ {
			if ship == nil {
				out = append(out, Col(off+c))
			} else if i, ok := slices.BinarySearch(ship, c); ok {
				out = append(out, Col(off+i))
			} else {
				out = append(out, nullLit())
			}
		}
		if ship != nil {
			w = len(ship)
		}
		off += w
	}
	return out
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
	gw := len(n.GroupBy)
	// The rows aggregated are [group..., args...]; key = leading group
	// columns.
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
	// Rows that fold the same in any order need co-location, not order:
	// they travel on hash edges, the join's sides when it is fused, and
	// the producers of an agg stage pre-aggregate them.
	anyOrder := foldsInAnyOrder(n)
	hash := !c.forMR && anyOrder
	fused := c.use.fusesWithJoin(n)
	if fused && hash {
		c.hashJoins[n.Children[0]] = true
	}
	in, err := c.compile(n.Children[0])
	if err != nil {
		return nil, err
	}
	if fused {
		// No stage of its own: the join's tasks aggregate their product,
		// read through the join's re-widening when its sides were pruned.
		j := in[0]
		for i := len(j.pipe) - 1; i >= 0; i-- {
			project = substituteAll(project, inline(j.pipe[i].Project))
		}
		g := j.st.spec.Group
		g.GroupWidth, g.Aggs, g.AggInput = gw, aggs, project
		return []cursor{{st: j.st}}, nil
	}
	keys := make([]*Expr, gw)
	for i := range keys {
		keys[i] = Col(i)
	}
	st := c.newStage("agg")
	st.grouped = true
	st.par = c.cfg.DefaultPartitions
	st.spec.Group = &GroupOp{Kind: "agg", GroupWidth: gw, Aggs: aggs, Partial: anyOrder}
	var partial []AggFuncSpec
	if anyOrder {
		partial = aggs
	}
	for _, cur := range in {
		cur = cur.with(PipeOp{Kind: "project", Project: project})
		cur.st.spec.Emits = append(cur.st.spec.Emits, EmitSpec{
			Input: cur.input, Output: st.name, Kind: EmitShuffle,
			Pipe: cur.pipe, Keys: keys, Tag: -1, Aggs: partial,
		})
		if err := c.shuffleEdge(cur.st, st, hash, keys); err != nil {
			return nil, err
		}
	}
	return []cursor{{st: st}}, nil
}

// foldsInAnyOrder reports whether agg node n writes the same bytes
// whatever order its rows fold in, judged by the kinds its input schema
// declares. Every aggregate state is exact in any order (aggstate.go), so
// only the group key is left: its columns are copied from a group's first
// row, and where a column of no declared kind (a null literal, a column
// out of range) holds values of mixed kinds, distinct values share key
// bytes (Int(1) and Float(1)) and the first row decides which is written.
// In a column of one kind, rows whose key bytes are equal hold identical
// values.
func foldsInAnyOrder(n *Node) bool {
	in := n.Children[0].OutSchema
	for _, g := range n.GroupBy {
		if exprKind(g, in) == row.KindNull {
			return false
		}
	}
	return true
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
		// The one sort task keeps the first Limit records by (key, value),
		// so they are among each producer task's first Limit.
		cur.st.spec.Emits = append(cur.st.spec.Emits, EmitSpec{
			Input: cur.input, Output: st.name, Kind: EmitShuffle,
			Pipe: cur.pipe, Keys: n.SortKeys, Desc: n.SortDesc, Tag: -1,
			Limit: n.Limit,
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

// compileRoots validates the plan, analyses what each node's consumers
// read, and lowers every store.
func (c *Compiler) compileRoots(roots []*Node) error {
	if err := Validate(roots); err != nil {
		return err
	}
	c.use = analyzeUsage(roots)
	for _, r := range roots {
		if err := c.compileStore(r); err != nil {
			return err
		}
	}
	return nil
}

// CompileTez lowers the plan roots to a single Tez DAG.
func (c *Compiler) CompileTez(name string, roots []*Node) (*dag.DAG, error) {
	if err := c.compileRoots(roots); err != nil {
		return nil, err
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
			switch {
			case e.hash:
				prop = library.UnorderedPartitionedEdge()
			case e.movement == dag.ScatterGather:
				prop = library.OrderedEdge(library.OrderedPartitionedConfig{})
			case e.movement == dag.Broadcast:
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

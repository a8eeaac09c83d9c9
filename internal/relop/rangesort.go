package relop

import (
	"fmt"
	"slices"
	"sort"

	"tez/internal/am"
	"tez/internal/event"
	"tez/internal/library"
	"tez/internal/plugin"
	"tez/internal/row"
)

// This file implements the two Pig-on-Tez runtime re-configurations of
// §5.3 as plan operators:
//
//   - RangeSortNode: sample-based global ordering. A sampler sub-graph
//     (an independent re-read of the input) feeds a single-task histogram
//     vertex; the histogram sends the sampled keys as a
//     VertexManagerEvent to the custom vertex manager of the partition
//     vertex, which computes balanced split points, rewrites the
//     partition vertex's output payload to a range partitioner
//     (SetOutEdgePayload), and only then schedules its tasks.
//
//   - SkewJoinNode: the same histogram machinery applied to a join — both
//     sides are range-partitioned with the split points estimated from a
//     sample of the (skewed) left input, giving balanced reducers where a
//     hash partitioner would collapse under Zipf keys.
//
// Substitution note (recorded in DESIGN.md): real Pig additionally splits
// a single hot key across reducers and replicates matching right rows;
// here skew is mitigated by density-balanced ranges, which preserves the
// mechanism being demonstrated (sampling → histogram vertex → VM event →
// runtime partitioner re-configuration) with simpler data-plane code.
//
// On the MapReduce backend both operators degrade to what pre-Tez engines
// could express in one job: a single-reducer global sort and a plain hash
// join.

// RangeSortNode globally orders rows with `partitions`-way parallelism.
// A limit is global, so a limited range sort compiles as the plain
// limited sort on either backend.
func RangeSortNode(in *Node, keys []*Expr, desc []bool, limit, partitions int) *Node {
	return &Node{
		Op: "rangesort", Children: []*Node{in},
		SortKeys: keys, SortDesc: desc, Limit: limit,
		RangeParts: partitions,
		OutSchema:  in.OutSchema,
	}
}

// SkewJoinNode joins with sampled range partitioning on the join key.
func SkewJoinNode(l, r *Node, keysL, keysR []*Expr, partitions int) *Node {
	return &Node{
		Op: "skewjoin", Children: []*Node{l, r},
		JoinL: keysL, JoinR: keysR,
		RangeParts: partitions,
		OutSchema:  l.OutSchema.Concat(r.OutSchema),
	}
}

// CopyPlan deep-copies a plan subtree so the copy compiles to fresh stages
// (the sampler must be independent of the stage it re-configures, or the
// graph would gate on itself).
func CopyPlan(n *Node) *Node {
	if n == nil {
		return nil
	}
	cp := *n
	cp.Children = make([]*Node, len(n.Children))
	for i, c := range n.Children {
		cp.Children[i] = CopyPlan(c)
	}
	return &cp
}

// buildSampler compiles an independent copy of `src` that emits a sampled
// key stream into a 1-task histogram stage, which forwards the sorted
// sample to targets as VertexManagerEvents.
func (c *Compiler) buildSampler(src *Node, key *Expr, desc bool, targets []*bStage) error {
	cs, err := c.compile(CopyPlan(src))
	if err != nil {
		return err
	}
	hist := c.groupStage("histogram", 1, &GroupOp{Kind: "sort"})
	es := EmitSpec{Keys: []*Expr{key}, Desc: []bool{desc}, Tag: -1, SampleRate: 0.1}
	if err := c.shuffleTo(cs, hist, es, false); err != nil {
		return err
	}
	for _, tgt := range targets {
		hist.spec.Emits = append(hist.spec.Emits, EmitSpec{
			Input: "", Output: tgt.name, Kind: EmitVM,
			Keys: []*Expr{key}, Tag: -1,
		})
	}
	return nil
}

func (c *Compiler) compileRangeSort(n *Node) ([]cursor, error) {
	if c.forMR || n.Limit > 0 {
		// MR's pre-Tez degradation: a single-reducer global sort. A limit
		// is global too, so a limited sort is the plain limited sort on
		// Tez as well: each producer keeps its first Limit records and one
		// sort task keeps the first Limit of those.
		plain := SortNode(n.Children[0], n.SortKeys, n.SortDesc, n.Limit)
		return c.compile(plain)
	}
	in, err := c.compile(n.Children[0])
	if err != nil {
		return nil, err
	}
	parts := n.RangeParts
	if parts <= 0 {
		parts = c.cfg.DefaultPartitions
	}
	st := c.groupStage("rangesort", parts, &GroupOp{Kind: "sort"})
	producers, err := c.rangeShuffleTo(in, st, EmitSpec{Keys: n.SortKeys, Desc: n.SortDesc, Tag: -1}, parts, nil)
	if err == nil {
		err = c.buildSampler(n.Children[0], n.SortKeys[0], firstDesc(n.SortDesc), producers)
	}
	return []cursor{{st: st}}, err
}

func (c *Compiler) compileSkewJoin(n *Node) ([]cursor, error) {
	if c.forMR {
		// Pre-Tez degradation: plain hash join.
		plain := JoinNode(n.Children[0], n.Children[1], n.JoinL, n.JoinR, false)
		plain.OutSchema = n.OutSchema
		return c.compile(plain)
	}
	left, right, err := c.compileInputs(n)
	if err != nil {
		return nil, err
	}
	parts := n.RangeParts
	if parts <= 0 {
		parts = c.cfg.DefaultPartitions
	}
	st := c.groupStage("skewjoin", parts, &GroupOp{Kind: "join"})
	producers, err := c.rangeShuffleTo(left, st, EmitSpec{Keys: n.JoinL, Tag: 0}, parts, nil)
	if err == nil {
		producers, err = c.rangeShuffleTo(right, st, EmitSpec{Keys: n.JoinR, Tag: 1}, parts, producers)
	}
	if err == nil {
		// The sample comes from the (skewed) left input on its join key.
		err = c.buildSampler(n.Children[0], n.JoinL[0], false, producers)
	}
	return []cursor{{st: st}}, err
}

// rangeShuffleTo is shuffleTo over ordered edges whose producers
// range-partition their rows (attachRangeVM); it appends the producing
// stages to producers.
func (c *Compiler) rangeShuffleTo(curs []cursor, st *bStage, es EmitSpec, parts int, producers []*bStage) ([]*bStage, error) {
	if err := c.shuffleTo(curs, st, es, false); err != nil {
		return nil, err
	}
	for _, cur := range curs {
		if err := c.attachRangeVM(cur.st, st.name, parts, firstDesc(es.Desc)); err != nil {
			return nil, err
		}
		producers = append(producers, cur.st)
	}
	return producers, nil
}

func (c *Compiler) attachRangeVM(st *bStage, dest string, parts int, desc bool) error {
	if !st.vm.IsZero() {
		return fmt.Errorf("relop: stage %s already has a vertex manager", st.name)
	}
	st.vm = plugin.Desc(RangePartitionVMName, RangePartitionVMConfig{
		DestVertex: dest,
		Partitions: parts,
		Desc:       desc,
	})
	return nil
}

func firstDesc(desc []bool) bool { return len(desc) > 0 && desc[0] }

// RangePartitionVMName is the custom vertex manager that converts a
// sampled histogram into a range partitioner at runtime.
const RangePartitionVMName = "relop.range_partition_vm"

func init() {
	am.RegisterVertexManager(RangePartitionVMName, func() am.VertexManager {
		return &rangePartitionVM{}
	})
}

// RangePartitionVMConfig is the manager's opaque payload.
type RangePartitionVMConfig struct {
	DestVertex string
	Partitions int
	Desc       bool
}

// rangePartitionVM gates its vertex until the histogram event arrives,
// rewrites the out-edge output payload with balanced split points, then
// schedules every task.
type rangePartitionVM struct {
	ctx     am.VertexManagerContext
	cfg     RangePartitionVMConfig
	started bool
	points  [][]byte
	done    bool
}

func (m *rangePartitionVM) Initialize(ctx am.VertexManagerContext) error {
	m.ctx = ctx
	return plugin.Decode(ctx.Payload(), &m.cfg)
}

func (m *rangePartitionVM) OnVertexStarted() {
	m.started = true
	m.maybeGo()
}

func (m *rangePartitionVM) OnSourceTaskCompleted(string, int) {}

// OnVertexManagerEvent reads the histogram. Events from the vertex's own
// sources are the statistics their shuffle outputs send every consumer's
// manager; this one partitions by sample, not by size, and skips them.
func (m *rangePartitionVM) OnVertexManagerEvent(ev event.VertexManagerEvent) {
	if m.points != nil || slices.Contains(m.ctx.SourceVertices(), ev.SrcVertex) {
		return
	}
	var pv PruneValues
	if err := plugin.Decode(ev.Payload, &pv); err != nil {
		// Not ignorable: without split points the vertex is never scheduled.
		m.ctx.Fail(fmt.Errorf("%s: histogram from %s/%d: %w", RangePartitionVMName, ev.SrcVertex, ev.SrcTask, err))
		return
	}
	keys := make([][]byte, 0, len(pv.Values))
	for _, v := range pv.Values {
		k := row.EncodeKey(nil, v)
		if m.cfg.Desc {
			row.FlipKey(k)
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return string(keys[i]) < string(keys[j]) })
	m.points = library.SplitPoints(keys, m.cfg.Partitions)
	if m.points == nil {
		m.points = [][]byte{} // empty sample: single effective range
	}
	m.maybeGo()
}

func (m *rangePartitionVM) maybeGo() {
	if m.done || !m.started || m.points == nil {
		return
	}
	m.done = true
	payload := plugin.MustEncode(library.OrderedPartitionedConfig{
		Partitioner: library.PartitionerSpec{Kind: "range", Points: m.points},
	})
	if err := m.ctx.SetOutEdgePayload(m.cfg.DestVertex, payload); err != nil {
		m.ctx.Fail(fmt.Errorf("%s: range partitioner for %s: %w", RangePartitionVMName, m.cfg.DestVertex, err))
		return
	}
	p := m.ctx.Parallelism()
	tasks := make([]int, p)
	for i := range tasks {
		tasks[i] = i
	}
	m.ctx.ScheduleTasks(tasks)
}

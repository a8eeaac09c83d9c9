package relop

import (
	"fmt"
	"hash/fnv"

	"tez/internal/col"
	"tez/internal/plugin"
	"tez/internal/row"
	"tez/internal/runtime"
)

// StageProcessorName is the registered processor hosting StageSpecs.
const StageProcessorName = "relop.stage"

func init() {
	runtime.RegisterProcessor(StageProcessorName, func() runtime.Processor { return &stageProcessor{} })
}

// DefaultBatchSize is the rows-per-batch flush threshold of every emit
// pipeline and aggregation a stage runs. It stays far below
// col.MaxDecodeRows, so a consumer never refuses a frame its producer
// framed.
const DefaultBatchSize = 1024

// PruneValues is the payload of initializer events and of VM histogram
// events: a bag of key values.
type PruneValues struct {
	Values []row.Value
}

// stageProcessor runs one task of a stage. spec is shared, read-only, with
// every other task of the vertex that runs in this container: nothing
// under relop may write through it (TestStageSpecSharedReadOnly).
type stageProcessor struct {
	ctx  *runtime.Context
	spec *StageSpec
}

func (p *stageProcessor) Initialize(ctx *runtime.Context) error {
	p.ctx = ctx
	var err error
	p.spec, err = loadStageSpec(ctx)
	return err
}

// loadStageSpec decodes the stage program once per container and vertex
// (runtime.VertexObject): the program is the same for every task of a
// vertex, deep (Expr trees), and gob-encoded, so decoding it per task used
// to cost more than a small task's own work.
func loadStageSpec(ctx *runtime.Context) (*StageSpec, error) {
	return runtime.VertexObject(ctx, "relop/stage", func() (*StageSpec, error) {
		spec := new(StageSpec)
		return spec, plugin.Decode(ctx.Payload, spec)
	})
}

func (p *stageProcessor) Close() error { return nil }

// sampled keeps a deterministic share of rows: FNV-1a over the row's
// wire encoding, so every attempt of a task samples the same rows.
func sampled(encoded []byte, rate float64) bool {
	h := fnv.New32a()
	_, _ = h.Write(encoded)
	return float64(h.Sum32()%1000000) < rate*1000000
}

func (p *stageProcessor) Run(inputs map[string]runtime.Input, outputs map[string]runtime.Output) error {
	// Bind emitters to writers.
	emitters := make([]*vecEmitter, len(p.spec.Emits))
	tables := map[string]map[string][]row.Row{}
	for i := range p.spec.Emits {
		es := p.spec.Emits[i]
		var kw runtime.KVWriter
		switch es.Kind {
		case EmitShuffle, EmitBroadcast, EmitSink:
			out, ok := outputs[es.Output]
			if !ok {
				return fmt.Errorf("relop: stage has no output %q", es.Output)
			}
			w, err := out.Writer()
			if err != nil {
				return err
			}
			if kw, ok = w.(runtime.KVWriter); !ok {
				return fmt.Errorf("relop: output %q writer is %T", es.Output, w)
			}
		}
		emitters[i] = newVecEmitter(es, kw, tables, DefaultBatchSize)
	}

	// Build hash tables (possibly from the shared object registry, §4.2).
	for _, in := range p.spec.Inputs {
		if in.Mode != InBuild {
			continue
		}
		table, err := p.buildTable(in, inputs)
		if err != nil {
			return err
		}
		tables[in.Name] = table
	}

	// Stream the inputs. All grouped inputs are merged into one key-ordered
	// group stream (a reduce-side join's sides arrive on separate edges).
	var grouped []runtime.GroupedKVReader
	for _, in := range p.spec.Inputs {
		switch in.Mode {
		case InSource, InTable:
			if err := p.runStream(in, inputs, emitters); err != nil {
				return err
			}
		case InGrouped:
			src, ok := inputs[in.Name]
			if !ok {
				return fmt.Errorf("relop: stage has no input %q", in.Name)
			}
			rd, err := src.Reader()
			if err != nil {
				return err
			}
			gr, ok := rd.(runtime.GroupedKVReader)
			if !ok {
				return fmt.Errorf("relop: input %q reader is %T", in.Name, rd)
			}
			grouped = append(grouped, gr)
		}
	}
	if len(grouped) > 0 {
		if err := p.runGrouped(grouped, emitters); err != nil {
			return err
		}
	}
	for _, em := range emitters {
		if err := em.close(); err != nil {
			return err
		}
	}
	for _, em := range emitters {
		em.sendDeferred(p.ctx)
	}
	if p.ctx.Services.Counters != nil {
		for _, em := range emitters {
			p.ctx.Services.Counters.Add("ROWS_EMITTED", em.count)
		}
	}
	return nil
}

// buildTable loads a broadcast build side, caching through the object
// registry so tasks reusing the container skip the rebuild (the Hive
// broadcast-join example of §4.2). The edge carries col.EncodeBatch
// frames; each frame is keyed column-wise and its rows are materialized
// once into the table.
func (p *stageProcessor) buildTable(in StageInput, inputs map[string]runtime.Input) (map[string][]row.Row, error) {
	cacheKey := fmt.Sprintf("relop/hj/%s/%s", p.ctx.Meta.Vertex, in.Name)
	if in.CacheInRegistry && p.ctx.Services.Registry != nil {
		if v, ok := p.ctx.Services.Registry.Get(p.ctx.Meta, cacheKey); ok {
			if p.ctx.Services.Counters != nil {
				p.ctx.Services.Counters.Add("HASHTABLE_CACHE_HITS", 1)
			}
			return v.(map[string][]row.Row), nil
		}
	}
	src, ok := inputs[in.Name]
	if !ok {
		return nil, fmt.Errorf("relop: stage has no input %q", in.Name)
	}
	rd, err := src.Reader()
	if err != nil {
		return nil, err
	}
	kv, ok := rd.(runtime.KVReader)
	if !ok {
		return nil, fmt.Errorf("relop: build input %q reader is %T", in.Name, rd)
	}
	table := map[string][]row.Row{}
	var keyVecs []col.Vector
	var key []byte
	b := col.NewBatch()
	for kv.Next() {
		if err := col.DecodeBatchInto(b, kv.Value(), nil); err != nil {
			return nil, err
		}
		keyVecs = evalKeys(keyVecs[:0], in.BuildKeys, b)
		for i := 0; i < b.Len(); i++ {
			key = appendKey(key[:0], keyVecs, i, nil)
			table[string(key)] = append(table[string(key)], b.MaterializeRow(i))
		}
	}
	if err := kv.Err(); err != nil {
		return nil, err
	}
	if p.ctx.Services.Counters != nil {
		p.ctx.Services.Counters.Add("HASHTABLE_BUILDS", 1)
	}
	if in.CacheInRegistry && p.ctx.Services.Registry != nil {
		p.ctx.Services.Registry.Add(runtime.LifetimeDAG, p.ctx.Meta, cacheKey, table)
	}
	return table, nil
}

// runStream feeds a DFS input through the emits bound to it: each emitter
// decodes a table stripe's read columns, or parses a row-encoded record,
// straight into its column vectors.
func (p *stageProcessor) runStream(in StageInput, inputs map[string]runtime.Input, emitters []*vecEmitter) error {
	src, ok := inputs[in.Name]
	if !ok {
		return fmt.Errorf("relop: stage has no input %q", in.Name)
	}
	rd, err := src.Reader()
	if err != nil {
		return err
	}
	kv, ok := rd.(runtime.KVReader)
	if !ok {
		return fmt.Errorf("relop: input %q reader is %T", in.Name, rd)
	}
	var bound []*vecEmitter
	for _, em := range emitters {
		if em.spec.Input == in.Name {
			bound = append(bound, em)
		}
	}
	for kv.Next() {
		v := kv.Value()
		for _, em := range bound {
			var err error
			if in.Mode == InTable {
				err = em.addStripe(v, in.Cols)
			} else {
				err = em.add(v)
			}
			if err != nil {
				return err
			}
		}
	}
	// Flush here (not only at stage end) so each writer sees one input's
	// rows before the next input's when several inputs feed the stage.
	for _, em := range bound {
		if err := em.flush(); err != nil {
			return err
		}
	}
	return kv.Err()
}

// runGrouped applies the stage's GroupOp per key group and feeds the
// group-output emits. Multiple grouped inputs are merged by key. No group
// op boxes a row: sort and distinct hand the encoded value to the emitters
// as runStream does, a join writes its product column to column from
// per-side segments (into its aggregate, when it carries one), and an
// aggregate folds its groups' values through a groupFold.
func (p *stageProcessor) runGrouped(readers []runtime.GroupedKVReader, emitters []*vecEmitter) error {
	g := p.spec.Group
	if g == nil {
		return fmt.Errorf("relop: grouped inputs without group op")
	}
	gr := mergeGroupReaders(readers)
	var bound []*vecEmitter
	for _, em := range emitters {
		if em.spec.Input == "" {
			bound = append(bound, em)
		}
	}

	var join joinGroups
	agg := newGroupFold(g, DefaultBatchSize, bound)
	emitted := 0
	for gr.Next() {
		values := gr.Values()
		switch g.Kind {
		case "join":
			if err := join.run(g, values, bound); err != nil {
				return err
			}
		case "agg":
			if err := agg.addGroup(values); err != nil {
				return err
			}
		case "sort":
			for _, v := range values {
				if g.Limit > 0 && emitted >= g.Limit {
					return gr.Err()
				}
				if err := addEach(bound, v); err != nil {
					return err
				}
				emitted++
			}
		case "distinct":
			if err := addEach(bound, values[0]); err != nil {
				return err
			}
		default:
			return fmt.Errorf("relop: unknown group op %q", g.Kind)
		}
	}
	if err := gr.Err(); err != nil {
		return err
	}
	if err := agg.close(); err != nil {
		return err
	}
	return join.close()
}

// addEach appends one encoded row to every emitter.
func addEach(ems []*vecEmitter, encoded []byte) error {
	for _, em := range ems {
		if err := em.add(encoded); err != nil {
			return err
		}
	}
	return nil
}

// joinGroups is the reduce side of a shuffle join. Each group's tagged
// values are parsed per side into column segments — a new segment
// wherever the row width changes, so ragged rows keep their shape — and
// the segments are reused from group to group.
type joinGroups struct {
	sides []joinSide
	cur   []joinCursor // the product row being written: one row per side
	// agg takes the product instead of the emitters when the group op
	// carries an aggregate; it batches size rows (0: DefaultBatchSize).
	agg  *groupFold
	size int
}

// rowSink takes rows appended column by column: an emitter, or the
// join's aggregate.
type rowSink interface {
	beginRow(w int) (*col.Batch, error)
	endRow() error
}

// joinSide holds one side of the current group in segs[:n].
type joinSide struct {
	segs []*col.Batch
	n    int
}

type joinCursor struct {
	seg *col.Batch
	row int
}

// add appends one encoded row, opening a segment for the side's first row
// or on a width change.
func (s *joinSide) add(encoded []byte) error {
	if s.n > 0 {
		if ok, err := s.segs[s.n-1].AppendEncoded(encoded); err != nil || ok {
			return err
		}
	}
	if s.n == len(s.segs) {
		s.segs = append(s.segs, col.NewBatch())
	} else {
		s.segs[s.n].Reset()
	}
	s.n++
	_, err := s.segs[s.n-1].AppendEncoded(encoded) // an empty batch takes any width
	return err
}

// run splits tagged values by side and writes their cartesian product,
// side 0 outermost, into every emitter's batch column to column; each
// batch flushes on a width change or when full, as in hashJoin.
func (j *joinGroups) run(g *GroupOp, values [][]byte, ems []*vecEmitter) error {
	if len(j.sides) != g.Sides {
		j.sides = make([]joinSide, g.Sides)
		j.cur = make([]joinCursor, g.Sides)
	}
	for t := range j.sides {
		j.sides[t].n = 0
	}
	for _, v := range values {
		if len(v) == 0 {
			return fmt.Errorf("relop: untagged join value")
		}
		tag := int(v[0])
		if tag >= g.Sides {
			return fmt.Errorf("relop: join tag %d out of %d sides", tag, g.Sides)
		}
		if err := j.sides[tag].add(v[1:]); err != nil {
			return err
		}
	}
	for _, s := range j.sides {
		if s.n == 0 {
			return nil // inner join: some side empty
		}
	}
	if g.AggInput != nil {
		if j.agg == nil {
			size := j.size
			if size <= 0 {
				size = DefaultBatchSize
			}
			j.agg = newGroupFold(g, size, ems)
		}
		j.agg.ems = ems
		j.agg.startGroup()
	}
	return j.product(0, 0, ems)
}

// close writes what the join's aggregate still holds.
func (j *joinGroups) close() error {
	if j.agg == nil {
		return nil
	}
	return j.agg.close()
}

// product fixes side s's row in turn (the sides before it are fixed in
// cur) and writes each complete combination to the aggregate or to every
// emitter.
func (j *joinGroups) product(s, width int, ems []*vecEmitter) error {
	if s == len(j.sides) {
		if j.agg != nil {
			return j.writeRow(j.agg, width)
		}
		for _, em := range ems {
			if err := j.writeRow(em, width); err != nil {
				return err
			}
		}
		return nil
	}
	side := &j.sides[s]
	for _, seg := range side.segs[:side.n] {
		for i := 0; i < seg.Len(); i++ {
			j.cur[s] = joinCursor{seg: seg, row: i}
			if err := j.product(s+1, width+seg.Width(), ems); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeRow writes the product row fixed in cur to dst.
func (j *joinGroups) writeRow(dst rowSink, width int) error {
	b, err := dst.beginRow(width)
	if err != nil {
		return err
	}
	c := 0
	for _, cur := range j.cur {
		for k := 0; k < cur.seg.Width(); k++ {
			b.Col(c).AppendFrom(cur.seg.Col(k), cur.row)
			c++
		}
	}
	return dst.endRow()
}

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

// loadStageSpec decodes the stage program the first time a container runs
// a task of the vertex and keeps it in the container's object registry for
// the vertex's lifetime (§4.2; SweepVertex retires it): the program is the
// same for every task of a vertex, deep (Expr trees), and gob-encoded, so
// decoding it per task used to cost more than a small task's own work.
func loadStageSpec(ctx *runtime.Context) (*StageSpec, error) {
	reg := ctx.Services.Registry
	key := "relop/stage/" + ctx.Meta.DAG + "/" + ctx.Meta.Vertex
	if reg != nil {
		if v, ok := reg.Get(ctx.Meta, key); ok {
			return v.(*StageSpec), nil
		}
	}
	spec := new(StageSpec)
	if err := plugin.Decode(ctx.Payload, spec); err != nil {
		return nil, err
	}
	if reg != nil {
		reg.Add(runtime.LifetimeVertex, ctx.Meta, key, spec)
	}
	return spec, nil
}

func (p *stageProcessor) Close() error { return nil }

func flipBytes(b []byte) {
	for i := range b {
		b[i] = ^b[i]
	}
}

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
		case InSource:
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
		if err := em.flush(); err != nil {
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
	for kv.Next() {
		b, err := col.DecodeBatch(kv.Value())
		if err != nil {
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

// runStream feeds a row-stream input through the emits bound to it: each
// emitter parses the encoded bytes straight into its column vectors.
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
			if err := em.add(v); err != nil {
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
// group-output emits. Multiple grouped inputs are merged by key.
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
	emitRow := func(r row.Row) error {
		for _, em := range bound {
			if err := em.addRow(r); err != nil {
				return err
			}
		}
		return nil
	}

	aggScratch := col.NewBatch()
	emitted := 0
	for gr.Next() {
		values := gr.Values()
		switch g.Kind {
		case "join":
			if err := p.joinGroup(g, values, emitRow); err != nil {
				return err
			}
		case "agg":
			if err := aggGroupVec(g, values, DefaultBatchSize, aggScratch, emitRow); err != nil {
				return err
			}
		case "sort":
			for _, v := range values {
				if g.Limit > 0 && emitted >= g.Limit {
					return gr.Err()
				}
				r, err := row.Decode(v)
				if err != nil {
					return err
				}
				if err := emitRow(r); err != nil {
					return err
				}
				emitted++
			}
		case "distinct":
			r, err := row.Decode(values[0])
			if err != nil {
				return err
			}
			if err := emitRow(r); err != nil {
				return err
			}
		default:
			return fmt.Errorf("relop: unknown group op %q", g.Kind)
		}
	}
	return gr.Err()
}

// joinGroup splits tagged values by side and emits the cartesian product.
func (p *stageProcessor) joinGroup(g *GroupOp, values [][]byte, emit func(row.Row) error) error {
	sides := make([][]row.Row, g.Sides)
	for _, v := range values {
		if len(v) == 0 {
			return fmt.Errorf("relop: untagged join value")
		}
		tag := int(v[0])
		if tag >= g.Sides {
			return fmt.Errorf("relop: join tag %d out of %d sides", tag, g.Sides)
		}
		r, err := row.Decode(v[1:])
		if err != nil {
			return err
		}
		sides[tag] = append(sides[tag], r)
	}
	for _, s := range sides {
		if len(s) == 0 {
			return nil // inner join: some side empty
		}
	}
	var rec func(i int, acc row.Row) error
	rec = func(i int, acc row.Row) error {
		if i == len(sides) {
			return emit(acc)
		}
		for _, r := range sides[i] {
			next := append(acc.Clone(), r...)
			if err := rec(i+1, next); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, row.Row{})
}

// aggState accumulates one aggregate: count includes nulls, sum
// accumulates float64 in row order, min/max keep the first value on
// Compare ties (observeChunk in vagg.go applies the rules).
type aggState struct {
	sum   float64
	count int64
	min   row.Value
	max   row.Value
	init  bool
}

// finalizeAgg appends the aggregate outputs to the group key columns.
func finalizeAgg(g *GroupOp, groupVals row.Row, states []aggState) (row.Row, error) {
	out := groupVals.Clone()
	for i, a := range g.Aggs {
		st := states[i]
		switch a.Func {
		case "sum":
			out = append(out, row.Float(st.sum))
		case "count":
			out = append(out, row.Int(st.count))
		case "avg":
			if st.count == 0 {
				out = append(out, row.Null())
			} else {
				out = append(out, row.Float(st.sum/float64(st.count)))
			}
		case "min":
			out = append(out, st.min)
		case "max":
			out = append(out, st.max)
		default:
			return nil, fmt.Errorf("relop: unknown aggregate %q", a.Func)
		}
	}
	return out, nil
}

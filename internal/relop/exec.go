package relop

import (
	"fmt"
	"hash/fnv"

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
// every task in this container, in any DAG, whose payload is the same:
// nothing under relop may write through it (TestStageSpecSharedReadOnly).
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

// loadStageSpec decodes the stage program once per container and payload
// for the whole session (runtime.PayloadObject): the program is deep
// (Expr trees) and gob-encoded, and a warm session runs the same programs
// DAG after DAG.
func loadStageSpec(ctx *runtime.Context) (*StageSpec, error) {
	return runtime.PayloadObject(ctx, "relop/stage", func(payload []byte) (*StageSpec, error) {
		spec := new(StageSpec)
		return spec, plugin.Decode(payload, spec)
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
	tables := map[string]*joinTable{}
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

	// Build join tables (possibly from the shared object registry, §4.2).
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
	// group stream (a reduce-side join's sides arrive on separate edges);
	// all hash inputs fold together.
	var grouped []runtime.GroupedKVReader
	var hashed []hashInput
	for _, in := range p.spec.Inputs {
		switch in.Mode {
		case InSource, InTable:
			if err := p.runStream(in, inputs, emitters); err != nil {
				return err
			}
		case InGrouped:
			rd, err := reader[runtime.GroupedKVReader](inputs, in.Name)
			if err != nil {
				return err
			}
			grouped = append(grouped, rd)
		case InHash:
			rd, err := reader[runtime.KVReader](inputs, in.Name)
			if err != nil {
				return err
			}
			hashed = append(hashed, hashInput{kv: rd, keys: in.BuildKeys})
		}
	}
	var bound []*vecEmitter // the group output's emitters
	for _, em := range emitters {
		if em.spec.Input == "" {
			bound = append(bound, em)
		}
	}
	if len(grouped) > 0 || len(hashed) > 0 {
		if err := p.runGroups(grouped, hashed, bound); err != nil {
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
		if c := p.ctx.Services.Counters; c != nil {
			c.Add("ROWS_EMITTED", em.count)
		}
	}
	return nil
}

// reader returns the reader of the named input as an R.
func reader[R any](inputs map[string]runtime.Input, name string) (R, error) {
	var none R
	src, ok := inputs[name]
	if !ok {
		return none, fmt.Errorf("relop: stage has no input %q", name)
	}
	rd, err := src.Reader()
	if err != nil {
		return none, err
	}
	r, ok := rd.(R)
	if !ok {
		return none, fmt.Errorf("relop: input %q reader is %T", name, rd)
	}
	return r, nil
}

// buildTable builds a broadcast build side's join table, caching it
// through the object registry so tasks reusing the container skip the
// rebuild (the Hive broadcast-join example of §4.2). The edge carries
// col.EncodeBatch frames, kept decoded in the table. A cached table is
// shared read-only by every task that probes it.
func (p *stageProcessor) buildTable(in StageInput, inputs map[string]runtime.Input) (*joinTable, error) {
	cacheKey := fmt.Sprintf("relop/hj/%s/%s", p.ctx.Meta.Vertex, in.Name)
	reg, counters := p.ctx.Services.Registry, p.ctx.Services.Counters
	cache := in.CacheInRegistry && reg != nil
	if cache {
		if v, ok := reg.Get(p.ctx.Meta, cacheKey); ok {
			if counters != nil {
				counters.Add("HASHTABLE_CACHE_HITS", 1)
			}
			return v.(*joinTable), nil
		}
	}
	kv, err := reader[runtime.KVReader](inputs, in.Name)
	if err != nil {
		return nil, err
	}
	var frames []keyedFrame
	for kv.Next() {
		frames = append(frames, keyedFrame{kv.Value(), in.BuildKeys})
	}
	if err := kv.Err(); err != nil {
		return nil, err
	}
	t := newJoinTable()
	if err := t.build(frames, t.keys.add, counters); err != nil {
		return nil, err
	}
	if cache {
		reg.Add(runtime.LifetimeDAG, p.ctx.Meta, cacheKey, t)
	}
	return t, nil
}

// runStream feeds a DFS input through the emits bound to it: each emitter
// decodes a table stripe's read columns, or parses a row-encoded record,
// straight into its column vectors.
func (p *stageProcessor) runStream(in StageInput, inputs map[string]runtime.Input, emitters []*vecEmitter) error {
	kv, err := reader[runtime.KVReader](inputs, in.Name)
	if err != nil {
		return err
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

// runGroups applies the stage's GroupOp to its shuffle inputs and feeds
// the group-output emits. An aggregate, an agg stage's or one fused with
// its join, folds through one hashFold whatever edge feeds it, and writes
// its groups when the inputs end: a hash edge's rows as they arrive
// (hashedge.go), a grouped edge's a group at a time. A join fused with its
// aggregate builds a join table on a hash edge's side 0 and folds the
// products of side 1's rows with their matches.
func (p *stageProcessor) runGroups(grouped []runtime.GroupedKVReader, hashed []hashInput, bound []*vecEmitter) error {
	g := p.spec.Group
	if g == nil {
		return fmt.Errorf("relop: shuffle inputs without group op")
	}
	if !g.folds() {
		if len(hashed) > 0 {
			return fmt.Errorf("relop: group op %q cannot read a hash edge", g.Kind)
		}
		return p.runGrouped(grouped, nil, bound)
	}
	f, err := getHashFold(g, DefaultBatchSize)
	if err != nil {
		return err
	}
	defer hashFolds.Put(f)
	switch {
	case len(grouped) > 0:
		err = p.runGrouped(grouped, f, bound)
	case g.Kind == "agg":
		err = f.addInputs(hashed)
	default:
		err = f.join(hashed, p.ctx.Services.Counters)
	}
	if err != nil {
		return err
	}
	return f.emit(bound)
}

// runGrouped applies the stage's GroupOp per key group, merging several
// grouped inputs by key. No group op boxes a row: sort and distinct hand
// the encoded value to the emitters as runStream does, a join writes its
// product column to column from per-side segments, and an aggregate folds
// each group into fold, keyed by the group's key.
func (p *stageProcessor) runGrouped(readers []runtime.GroupedKVReader, fold *hashFold, bound []*vecEmitter) error {
	g := p.spec.Group
	gr := mergeGroupReaders(readers)
	var join joinGroups
	emitted := 0
	for gr.Next() {
		values := gr.Values()
		switch {
		case fold != nil && g.Kind == "agg":
			if err := fold.addGroup(bound, gr.Key(), values); err != nil {
				return err
			}
		case fold != nil:
			if err := fold.addJoin(bound, gr.Key(), &join, values); err != nil {
				return err
			}
		case g.Kind == "join":
			if err := join.run(values, bound); err != nil {
				return err
			}
		case g.Kind == "sort":
			for _, v := range values {
				if g.Limit > 0 && emitted >= g.Limit {
					return gr.Err()
				}
				if err := addEach(bound, v); err != nil {
					return err
				}
				emitted++
			}
		case g.Kind == "distinct":
			if err := addEach(bound, values[0]); err != nil {
				return err
			}
		default:
			return fmt.Errorf("relop: unknown group op %q", g.Kind)
		}
	}
	return gr.Err()
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

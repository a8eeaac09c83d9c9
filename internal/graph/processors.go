package graph

import (
	"fmt"
	"sort"
	"time"

	"tez/internal/library"
	"tez/internal/plugin"
	"tez/internal/runtime"
)

// Registered names of the engine's task-side components.
const (
	// ComputeProcessorName runs one partition's vertex programs for one
	// superstep.
	ComputeProcessorName = "graph.compute"
	// InboxProcessorName folds one shuffle partition's messages and
	// materialises them for the next superstep.
	InboxProcessorName = "graph.inbox"
	// StateInitializerName plans the state-snapshot read: task p reads
	// partition p's part file, hinted to the nodes holding its blocks — on
	// a reused container that node is where the previous superstep wrote
	// the snapshot, which is what turns locality hints into registry hits.
	StateInitializerName = "graph.state_initializer"
)

// Task counters (visible in DAGResult.Counters).
const (
	ctrRegistryHits = "GRAPH_STATE_REGISTRY_HITS"
	ctrColdLoads    = "GRAPH_STATE_COLD_LOADS"
	ctrLoadNS       = "GRAPH_STATE_LOAD_NS"
	ctrCombined     = "GRAPH_MESSAGES_COMBINED"
)

func init() {
	runtime.RegisterProcessor(ComputeProcessorName, func() runtime.Processor { return &computeProc{} })
	runtime.RegisterProcessor(InboxProcessorName, func() runtime.Processor { return &inboxProc{} })
	runtime.RegisterInitializer(StateInitializerName, func() runtime.Initializer { return stateInitializer{} })
	for _, c := range []Combiner{CombineSum, CombineMin, CombineMax} {
		registerCombine(c)
	}
}

// registerCombine compiles a typed message combiner onto the shuffle's
// generic combine hook: the map side folds each sorted key group before
// anything is spilled or shipped, so for combining programs at most one
// message per (producer task, destination vertex) crosses the wire.
func registerCombine(c Combiner) {
	fold := c.fold()
	library.RegisterCombineFunc(c.FuncName(), func(key []byte, values [][]byte, out runtime.KVWriter) error {
		acc, err := msgValue(values[0])
		if err != nil {
			return err
		}
		for _, v := range values[1:] {
			f, err := msgValue(v)
			if err != nil {
				return err
			}
			acc = fold(acc, f)
		}
		return out.Write(key, msgBytes(acc))
	})
}

// computeConfig is the compute processor's payload for one superstep.
type computeConfig struct {
	Job        string
	Program    string
	ProgramCfg []byte
	Superstep  int
	Partitions int
	Info       GraphInfo
	// InboxDir holds the messages delivered to this superstep ("" at
	// superstep 0 or when the previous superstep sent nothing).
	InboxDir string
	// Aggs carries the previous superstep's folded global aggregators.
	Aggs map[string]float64
	// AggSpecs declares the aggregator kinds (built-ins + program's).
	AggSpecs []AggSpec
	// DisableCache makes every task cold-load its partition snapshot from
	// the DFS instead of the ObjectRegistry (the cold-load ablation of the
	// graph bench).
	DisableCache bool
}

// computeVertex is what the compute tasks of a superstep share in a
// container, one task at a time: the decoded payload and the configured
// program, built once (runtime.VertexObject) and read-only after.
type computeVertex struct {
	cfg  computeConfig
	prog Program
}

// computeProc executes Program.Compute over one graph partition: load the
// partition snapshot (registry hit or DFS cold load), deliver inbox
// messages, run active vertices, emit next-superstep messages onto the
// shuffle edge, and write the next snapshot + aggregator partials to the
// sinks.
type computeProc struct {
	ctx *runtime.Context
	*computeVertex
}

func (p *computeProc) Initialize(ctx *runtime.Context) error {
	p.ctx = ctx
	var err error
	p.computeVertex, err = runtime.VertexObject(ctx, "graph/compute", func() (*computeVertex, error) {
		v := &computeVertex{}
		if err := plugin.Decode(ctx.Payload, &v.cfg); err != nil {
			return nil, err
		}
		var err error
		v.prog, err = newProgram(v.cfg.Program, v.cfg.ProgramCfg)
		return v, err
	})
	return err
}

func (p *computeProc) Close() error { return nil }

func (p *computeProc) Run(in map[string]runtime.Input, out map[string]runtime.Output) error {
	cfg, meta, prog := &p.cfg, p.ctx.Meta, p.prog
	part := meta.Task
	if part >= cfg.Partitions {
		return fmt.Errorf("graph: compute task %d beyond %d partitions", part, cfg.Partitions)
	}
	snap, err := p.loadState(in)
	if err != nil {
		return err
	}
	msgs, err := p.readInbox(part)
	if err != nil {
		return err
	}

	edgeW, err := kvWriter(out, "inbox")
	if err != nil {
		return err
	}
	kinds := map[string]AggKind{}
	for _, s := range cfg.AggSpecs {
		kinds[s.Name] = s.Kind
	}
	cc := &ComputeContext{
		superstep: cfg.Superstep,
		info:      cfg.Info,
		agg:       cfg.Aggs,
		kinds:     kinds,
		partial:   map[string]float64{},
		send: func(dst int64, val float64) error {
			return edgeW.Write(vertexKey(dst), msgBytes(val))
		},
	}

	// Compute pass. The snapshot is shared (it may live in the registry and
	// be re-read by a retried or speculative attempt), so vertices are
	// copied before mutation; Edges slices are shared — topology is static.
	next := &partitionState{vertices: make([]vertexState, len(snap.vertices))}
	var active, halted int64
	for i := range snap.vertices {
		v := snap.vertices[i]
		m := msgs[v.ID]
		if cfg.Superstep == 0 || !v.Halted || len(m) > 0 {
			v.Halted = false
			cc.halt = false
			if err := prog.Compute(cc, &v.Vertex, m); err != nil {
				return err
			}
			if cc.err != nil {
				return cc.err
			}
			v.Halted = cc.halt
			active++
		}
		if v.Halted {
			halted++
		}
		next.vertices[i] = v
	}

	// Next-superstep snapshot (durable) + aggregator partials.
	snapW, err := kvWriter(out, "snapshot")
	if err != nil {
		return err
	}
	var buf []byte
	for i := range next.vertices {
		v := &next.vertices[i]
		buf = appendStateValue(buf[:0], v)
		if err := snapW.Write(vertexKey(v.ID), buf); err != nil {
			return err
		}
	}
	aggW, err := kvWriter(out, "agg")
	if err != nil {
		return err
	}
	for _, rec := range []struct {
		name string
		val  float64
	}{{AggActive, float64(active)}, {AggSent, float64(cc.sent)}, {AggHalted, float64(halted)}} {
		if err := aggW.Write([]byte(rec.name), msgBytes(rec.val)); err != nil {
			return err
		}
	}
	for _, s := range cc.sortedPartials() {
		if err := aggW.Write([]byte(s.Name), msgBytes(cc.partial[s.Name])); err != nil {
			return err
		}
	}
	// Locality breadcrumb: record which node computed this partition. The
	// driver feeds it back as the next superstep's location hint, steering
	// task p onto the container whose registry holds the fresh snapshot.
	// (Speculation-safe: only the winning attempt's sink is committed.)
	if node := p.ctx.Services.Node; node != "" {
		if err := aggW.Write([]byte(locAggName(part, node)), msgBytes(0)); err != nil {
			return err
		}
	}

	// Publish the next snapshot to this container's registry and retire
	// every predecessor generation of this partition — session-lifetime
	// entries are never framework-swept, so the engine bounds its own
	// footprint. Entries are immutable and content-deterministic, so a
	// stale entry left by a failed attempt is still byte-equal to the
	// durable snapshot; republishing just overwrites it.
	if reg := p.ctx.Services.Registry; reg != nil && !cfg.DisableCache {
		reg.Add(runtime.LifetimeSession, meta, regKey(cfg.Job, part, cfg.Superstep+1), next)
		for s := 0; s <= cfg.Superstep; s++ {
			reg.Delete(meta, regKey(cfg.Job, part, s))
		}
	}
	return nil
}

// loadState fetches the partition snapshot entering this superstep: from
// the container's registry when a previous superstep of this job ran here
// (skipping the DFS read entirely), else decoded from the durable state
// part file via the root source.
func (p *computeProc) loadState(in map[string]runtime.Input) (*partitionState, error) {
	cfg, meta := &p.cfg, p.ctx.Meta
	reg, ctr := p.ctx.Services.Registry, p.ctx.Services.Counters
	key := regKey(cfg.Job, meta.Task, cfg.Superstep)
	if reg != nil && !cfg.DisableCache {
		if v, ok := reg.Get(meta, key); ok {
			if snap, ok := v.(*partitionState); ok {
				ctr.Add(ctrRegistryHits, 1)
				return snap, nil
			}
		}
	}
	src, ok := in["state"]
	if !ok {
		return nil, fmt.Errorf("graph: compute without state source")
	}
	t0 := time.Now()
	rd, err := src.Reader()
	if err != nil {
		return nil, err
	}
	kv, ok := rd.(runtime.KVReader)
	if !ok {
		return nil, fmt.Errorf("graph: state reader is %T, want KVReader", rd)
	}
	snap, err := decodeSnapshot(kv)
	if err != nil {
		return nil, err
	}
	ctr.Add(ctrColdLoads, 1)
	ctr.Add(ctrLoadNS, time.Since(t0).Nanoseconds())
	return snap, nil
}

// readInbox loads this partition's messages from the previous superstep's
// inbox files. Every file is scanned and filtered by the engine's
// partition function: the inbox vertex's parallelism (and therefore the
// file layout) is whatever the ShuffleVertexManager's auto-parallelism
// chose that superstep, but each destination vertex's messages were fully
// folded inside exactly one shuffle partition, so filtering by PartitionOf
// re-routes them independent of layout. Reads pass the task's node, so
// they are on the chaos plane like any other task I/O.
func (p *computeProc) readInbox(part int) (map[int64][]float64, error) {
	if p.cfg.InboxDir == "" {
		return nil, nil
	}
	fs := p.ctx.Services.FS
	files := fs.List(p.cfg.InboxDir + "/part-")
	sort.Strings(files)
	msgs := map[int64][]float64{}
	for _, f := range files {
		blob, err := fs.ReadFile(f, p.ctx.Services.Node)
		if err != nil {
			return nil, err
		}
		r := library.NewPaddedReader(blob)
		for r.Next() {
			id, err := vertexID(r.Key())
			if err != nil {
				return nil, err
			}
			if PartitionOf(id, p.cfg.Partitions) != part {
				continue
			}
			v, err := msgValue(r.Value())
			if err != nil {
				return nil, err
			}
			msgs[id] = append(msgs[id], v)
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	return msgs, nil
}

// inboxConfig is the inbox processor's payload.
type inboxConfig struct {
	Combine Combiner
}

// inboxProc is the receive half of the superstep barrier: it drains its
// shuffle partitions' grouped messages, applies the program's combiner
// fold once more across producer tasks (the map side already folded
// within each producer), and materialises the surviving messages for the
// next superstep's compute vertex, plus receive statistics for the
// driver's timeline span.
type inboxProc struct {
	ctx *runtime.Context
	cfg *inboxConfig
}

func (p *inboxProc) Initialize(ctx *runtime.Context) error {
	p.ctx = ctx
	var err error
	p.cfg, err = runtime.VertexObject(ctx, "graph/inbox", func() (*inboxConfig, error) {
		cfg := new(inboxConfig)
		return cfg, plugin.Decode(ctx.Payload, cfg)
	})
	return err
}

func (p *inboxProc) Close() error { return nil }

func (p *inboxProc) Run(in map[string]runtime.Input, out map[string]runtime.Output) error {
	rd, err := in["compute"].Reader()
	if err != nil {
		return err
	}
	g, ok := rd.(runtime.GroupedKVReader)
	if !ok {
		return fmt.Errorf("graph: inbox reader is %T, want GroupedKVReader", rd)
	}
	ow, err := kvWriter(out, "out")
	if err != nil {
		return err
	}
	fold := p.cfg.Combine.fold()
	var received, emitted int64
	for g.Next() {
		vals := g.Values()
		received += int64(len(vals))
		if fold == nil {
			for _, v := range vals {
				if err := ow.Write(g.Key(), v); err != nil {
					return err
				}
			}
			emitted += int64(len(vals))
			continue
		}
		acc, err := msgValue(vals[0])
		if err != nil {
			return err
		}
		for _, v := range vals[1:] {
			f, err := msgValue(v)
			if err != nil {
				return err
			}
			acc = fold(acc, f)
		}
		if err := ow.Write(g.Key(), msgBytes(acc)); err != nil {
			return err
		}
		emitted++
	}
	if err := g.Err(); err != nil {
		return err
	}
	p.ctx.Services.Counters.Add(ctrCombined, received-emitted)
	mw, err := kvWriter(out, "mstats")
	if err != nil {
		return err
	}
	if err := mw.Write([]byte("graph.received"), msgBytes(float64(received))); err != nil {
		return err
	}
	return mw.Write([]byte("graph.emitted"), msgBytes(float64(emitted)))
}

// kvWriter fetches a named output's writer as a runtime.KVWriter.
func kvWriter(out map[string]runtime.Output, name string) (runtime.KVWriter, error) {
	o, ok := out[name]
	if !ok {
		return nil, fmt.Errorf("graph: missing output %q", name)
	}
	wAny, err := o.Writer()
	if err != nil {
		return nil, err
	}
	w, ok := wAny.(runtime.KVWriter)
	if !ok {
		return nil, fmt.Errorf("graph: output %q writer is %T, want KVWriter", name, wAny)
	}
	return w, nil
}

// stateInitConfig configures the state-snapshot initializer.
type stateInitConfig struct {
	Dir        string
	Partitions int
	// PrevNodes[p], when known, is the node that computed partition p last
	// superstep — the one container whose registry holds the snapshot.
	PrevNodes []string
}

// stateInitializer assigns task p the splits of partition p's committed
// state file. The location hint is the single node that computed the
// partition last superstep when the driver knows it — a hint of all
// replica hosts would let the scheduler pick any of them, and only one
// has the warm registry — falling back to the blocks' replica hosts
// (plain DFS locality) at superstep 0.
type stateInitializer struct{}

func (stateInitializer) Run(ctx *runtime.InitializerContext) (*runtime.InitializerResult, error) {
	var cfg stateInitConfig
	if err := plugin.Decode(ctx.Payload, &cfg); err != nil {
		return nil, err
	}
	res := &runtime.InitializerResult{Parallelism: cfg.Partitions}
	for p := 0; p < cfg.Partitions; p++ {
		splits, err := ctx.FS.Splits(library.FinalPath(cfg.Dir, p), 1<<40)
		if err != nil {
			return nil, err
		}
		res.PerTaskPayload = append(res.PerTaskPayload, plugin.MustEncode(library.SplitAssignment{Splits: splits}))
		var hints []string
		if p < len(cfg.PrevNodes) && cfg.PrevNodes[p] != "" {
			hints = []string{cfg.PrevNodes[p]}
		} else if len(splits) > 0 {
			hints = splits[0].Hosts
		}
		res.LocationHints = append(res.LocationHints, hints)
	}
	return res, nil
}

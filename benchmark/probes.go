package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"tez/internal/cluster"
	"tez/internal/col"
	"tez/internal/dfs"
	"tez/internal/event"
	"tez/internal/library"
	"tez/internal/mailbox"
	"tez/internal/metrics"
	"tez/internal/plugin"
	"tez/internal/relop"
	"tez/internal/row"
	tezrt "tez/internal/runtime"
	"tez/internal/shuffle"
	"tez/internal/timeline"
)

// probeShape sizes the layer probes like the workload's own inputs, so a
// probe's number moves when the workload's would.
type probeShape struct {
	nodes      int            // cluster size the RM probe schedules on
	sortKeys   [][]byte       // one producer's map output keys, in write order
	sortValue  []byte         // the value written with every key
	sortBytes  int64          // the edge's sort budget (negative: one run)
	parts      int            // partitions of the edge
	fetchBytes int            // bytes one shuffle fetch moves
	fileBytes  int            // bytes of one input file
	dfs        dfs.Config     // the platform's DFS cost model
	shuffle    shuffle.Config // the platform's shuffle cost model
}

// prober times direct calls into one layer's public functions. Each
// probe repeats its operation for at least round, rounds times, and
// reports the median round.
type prober struct {
	size sizing
	rec  *spanRecorder
	out  map[string]float64
}

// nsPerUnit runs op (which reports how many units it processed) until a
// round is full and returns the median nanoseconds per unit.
func (p *prober) nsPerUnit(name string, op func() (int, error)) error {
	sp := p.rec.begin("probe."+name, -1, -1)
	defer p.rec.end(sp)
	var rounds []float64
	for r := 0; r < p.size.probeRounds; r++ {
		units := 0
		start := time.Now()
		for time.Since(start) < p.size.probeRound || units == 0 {
			n, err := op()
			if err != nil {
				return fmt.Errorf("probe %s: %w", name, err)
			}
			if n <= 0 {
				return fmt.Errorf("probe %s: processed nothing", name)
			}
			units += n
		}
		rounds = append(rounds, float64(time.Since(start).Nanoseconds())/float64(units))
	}
	p.out[name] = median(rounds)
	return nil
}

// perSecond is nsPerUnit reported as units per second.
func (p *prober) perSecond(name string, op func() (int, error)) error {
	if err := p.nsPerUnit(name, op); err != nil {
		return err
	}
	p.out[name] = 1e9 / p.out[name]
	return nil
}

// mbPerSecond is for ops that report bytes.
func (p *prober) mbPerSecond(name string, op func() (int, error)) error {
	if err := p.perSecond(name, op); err != nil {
		return err
	}
	p.out[name] /= 1 << 20
	return nil
}

// runProbes returns every probe metric of the catalogue.
func runProbes(size sizing, seed int64, sh probeShape, rec *spanRecorder) (map[string]float64, error) {
	p := &prober{size: size, rec: rec, out: map[string]float64{}}
	steps := []func() error{
		func() error { return p.sched(sh) },
		func() error { return p.sort(sh) },
		func() error { return p.fetch(sh) },
		func() error { return p.dfs(sh) },
		func() error { return p.relational(seed) },
		p.plumbing,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// sched: scheduling decisions per second of a resource manager with the
// workload's node count. Requests arrive in waves with mixed locality;
// ScheduleNow drives passes until the wave is placed, so the time is
// scheduler work only.
func (p *prober) sched(sh probeShape) error {
	rm := cluster.New(cluster.Config{
		Nodes:             sh.nodes,
		NodesPerRack:      8,
		NodeResource:      cluster.Resource{MemoryMB: 8192, VCores: 8},
		ScheduleInterval:  time.Hour, // the probe drives passes itself
		NodeLocalityDelay: 2,
		RackLocalityDelay: 2,
	})
	defer rm.Stop()
	nodes := rm.Nodes()
	apps := make([]*cluster.Application, 4)
	for i := range apps {
		apps[i] = rm.Submit(fmt.Sprintf("probe-%d", i))
		defer apps[i].Unregister()
	}
	rng := rand.New(rand.NewSource(1))
	wave := sh.nodes * 4 // half the cluster's slots
	return p.perSecond("cluster.sched_decisions_per_s", func() (int, error) {
		for i := 0; i < wave; i++ {
			req := &cluster.ContainerRequest{
				Priority:      i % 3,
				Resource:      cluster.Resource{MemoryMB: 1024, VCores: 1},
				RelaxLocality: true,
			}
			switch i % 3 {
			case 0:
				req.Nodes = []cluster.NodeID{nodes[rng.Intn(len(nodes))]}
			case 1:
				req.Racks = []string{rm.RackOf(nodes[rng.Intn(len(nodes))])}
			}
			apps[i%len(apps)].Request(req)
		}
		placed := 0
		for pass := 0; pass < 10_000 && placed < wave; pass++ {
			rm.ScheduleNow()
			placed = 0
			for _, a := range apps {
				placed += a.HeldContainers()
			}
		}
		if placed != wave {
			return 0, fmt.Errorf("placed %d of %d requests", placed, wave)
		}
		// Hand the containers back so the next wave finds the cluster empty.
		for _, a := range apps {
			for ev, ok := a.Events().TryGet(); ok; ev, ok = a.Events().TryGet() {
				if ae, isAlloc := ev.(cluster.AllocatedEvent); isAlloc {
					a.Release(ae.Container)
				}
			}
		}
		return wave, nil
	})
}

// sort: one map-side producer of the ordered shuffle, Initialize → Write
// per record → Close, against a throwaway shuffle service. The output
// registers itself, as it does in a task.
func (p *prober) sort(sh probeShape) error {
	payload := plugin.MustEncode(library.OrderedPartitionedConfig{SortBytes: sh.sortBytes})
	produce := func() (int, error) {
		svc := shuffle.New(shuffle.Config{})
		svc.AddNode("n0", "r0")
		out := &library.OrderedPartitionedKVOutput{}
		ctx := &tezrt.Context{
			Meta:          tezrt.Meta{DAG: "probe", Vertex: "map"},
			Services:      tezrt.Services{Shuffle: svc, Node: "n0", Counters: metrics.NewCounters()},
			Payload:       payload,
			Name:          "reduce",
			PhysicalCount: sh.parts,
			Emit:          func(event.Event) {},
			Stop:          make(chan struct{}),
		}
		if err := out.Initialize(ctx); err != nil {
			return 0, err
		}
		wAny, err := out.Writer()
		if err != nil {
			return 0, err
		}
		w, ok := wAny.(tezrt.KVWriter)
		if !ok {
			return 0, fmt.Errorf("ordered output's writer is %T", wAny)
		}
		for _, k := range sh.sortKeys {
			if err := w.Write(k, sh.sortValue); err != nil {
				return 0, err
			}
		}
		if _, err := out.Close(); err != nil {
			return 0, err
		}
		return len(sh.sortKeys), nil
	}
	if err := p.nsPerUnit("library.sort_ns_per_record", produce); err != nil {
		return err
	}
	sp := p.rec.begin("probe.library.sort_allocs_per_record", -1, -1)
	defer p.rec.end(sp)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, err := produce()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	p.out["library.sort_allocs_per_record"] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	return nil
}

// fetch: megabytes per second through shuffle.Service.Fetch under the
// platform's transfer cost model, one partition of the workload's size
// at a time, read from another rack.
func (p *prober) fetch(sh probeShape) error {
	svc := shuffle.New(sh.shuffle)
	svc.AddNode("n0", "r0")
	svc.AddNode("n1", "r1")
	parts := make([][]byte, sh.parts)
	for i := range parts {
		parts[i] = make([]byte, sh.fetchBytes)
	}
	id := shuffle.OutputID{DAG: "probe", Vertex: "map", Name: "reduce"}
	if err := library.RegisterShuffleOutput(svc, "n0", id, parts); err != nil {
		return err
	}
	part := 0
	return p.mbPerSecond("shuffle.fetch_mb_per_s", func() (int, error) {
		blob, err := svc.Fetch(id, part%sh.parts, "n1")
		part++
		return len(blob), err
	})
}

// dfs: megabytes per second writing and remotely reading one file of the
// workload's input size under the platform's DFS cost model.
func (p *prober) dfs(sh probeShape) error {
	fs := dfs.New(sh.dfs)
	for i := 0; i < sh.nodes; i++ {
		fs.AddNode(fmt.Sprintf("n%d", i), fmt.Sprintf("r%d", i/8))
	}
	blob := make([]byte, sh.fileBytes)
	seq := 0
	if err := p.mbPerSecond("dfs.write_mb_per_s", func() (int, error) {
		// Two names in turn, so the file system holds two files however
		// long the round.
		path := fmt.Sprintf("/probe/file-%d", seq%2)
		seq++
		fs.Delete(path)
		return len(blob), fs.WriteFile(path, "n0", blob)
	}); err != nil {
		return err
	}
	return p.mbPerSecond("dfs.read_mb_per_s", func() (int, error) {
		got, err := fs.ReadFile("/probe/file-0", "")
		return len(got), err
	})
}

// lineitemRows generates n rows with data.GenTPCH's lineitem schema and
// value ranges.
func lineitemRows(seed int64, n int) []row.Row {
	rng := rand.New(rand.NewSource(seed))
	flags := []string{"A", "N", "R"}
	statuses := []string{"O", "F"}
	rows := make([]row.Row, n)
	for i := range rows {
		qty := 1 + rng.Intn(50)
		price := float64(1000+rng.Intn(90000)) / 100
		rows[i] = row.Row{
			row.Int(int64(i / 4)),
			row.Int(int64(rng.Intn(4000))),
			row.Int(int64(rng.Intn(1000))),
			row.Int(int64(qty)),
			row.Float(float64(qty) * price),
			row.Float(float64(rng.Intn(11)) / 100),
			row.Float(float64(rng.Intn(9)) / 100),
			row.String(flags[rng.Intn(len(flags))]),
			row.String(statuses[rng.Intn(len(statuses))]),
			row.Int(int64(19920101 + rng.Intn(7)*10000 + rng.Intn(12)*100 + rng.Intn(28))),
		}
	}
	return rows
}

// discardKV swallows terminal writes so the kernels, not an output
// buffer, are what is timed.
type discardKV struct{}

func (discardKV) Write(key, value []byte) error { return nil }

// relational: the relop kernels at the engine's default batch size and
// the row and batch codecs, all on lineitem-shaped rows.
func (p *prober) relational(seed int64) error {
	const n = 16 * relop.DefaultBatchSize
	rows := lineitemRows(seed+2, n)
	encoded := make([][]byte, n)
	for i, r := range rows {
		encoded[i] = row.Encode(nil, r)
	}
	sink := func(pipe ...relop.PipeOp) relop.EmitSpec {
		return relop.EmitSpec{Input: "in", Output: "out", Kind: relop.EmitSink, Tag: -1, Pipe: pipe}
	}
	emit := func(spec relop.EmitSpec, tables map[string]map[string][]row.Row, widths map[string]int) func() (int, error) {
		return func() (int, error) {
			if _, err := relop.RunEmitBench(spec, tables, widths, encoded, relop.DefaultBatchSize, discardKV{}); err != nil {
				return 0, err
			}
			return n, nil
		}
	}

	// q1's predicate and the arithmetic of its aggregates' inputs.
	filter := sink(relop.PipeOp{Kind: "filter", Filter: relop.Cmp("<=", relop.Col(9), relop.LitInt(19921231))})
	if err := p.nsPerUnit("relop.filter_ns_per_row", emit(filter, nil, nil)); err != nil {
		return err
	}
	project := sink(relop.PipeOp{Kind: "project", Project: []*relop.Expr{
		relop.Col(7), relop.Col(8), relop.Col(3),
		relop.Arith("*", relop.Col(4), relop.Arith("-", relop.LitFloat(1), relop.Col(5))),
	}})
	if err := p.nsPerUnit("relop.project_ns_per_row", emit(project, nil, nil)); err != nil {
		return err
	}

	// q18's probe side against an orders-shaped build table.
	build := map[string][]row.Row{}
	for k := 0; k < n/4; k++ {
		br := row.Row{row.Int(int64(k)), row.Int(int64(k % 997))}
		build[string(row.EncodeKey(nil, br[0]))] = []row.Row{br}
	}
	join := sink(relop.PipeOp{Kind: "hashjoin", HJ: &relop.HashJoinSpec{
		Input: "orders", ProbeKeys: []*relop.Expr{relop.Col(0)},
	}})
	tables := map[string]map[string][]row.Row{"orders": build}
	if err := p.nsPerUnit("relop.hashjoin_ns_per_row", emit(join, tables, map[string]int{"orders": 2})); err != nil {
		return err
	}

	// q1's aggregates over one group's values.
	agg := &relop.GroupOp{Kind: "agg", GroupWidth: 1, Aggs: []relop.AggFuncSpec{
		{Func: "sum", Col: 3}, {Func: "sum", Col: 4}, {Func: "avg", Col: 5}, {Func: "count", Col: 0},
	}}
	if err := p.nsPerUnit("relop.agg_ns_per_row", func() (int, error) {
		return n, relop.RunAggBench(agg, encoded, relop.DefaultBatchSize, func(row.Row) error { return nil })
	}); err != nil {
		return err
	}

	var rowBuf []byte
	if err := p.nsPerUnit("row.encode_ns_per_row", func() (int, error) {
		for _, r := range rows {
			rowBuf = row.Encode(rowBuf[:0], r)
		}
		return n, nil
	}); err != nil {
		return err
	}

	batch := col.NewBatch()
	for _, r := range rows[:relop.DefaultBatchSize] {
		if !batch.AppendRow(r) {
			return fmt.Errorf("probe col: lineitem row does not fit the batch")
		}
	}
	var wire []byte
	if err := p.nsPerUnit("col.encode_ns_per_row", func() (int, error) {
		wire = col.EncodeBatch(wire[:0], batch)
		return batch.Len(), nil
	}); err != nil {
		return err
	}
	return p.nsPerUnit("col.decode_ns_per_row", func() (int, error) {
		b, err := col.DecodeBatch(wire)
		if err != nil {
			return 0, err
		}
		return b.Len(), nil
	})
}

// plumbing: the shared structures every task and event crosses — the
// mailbox, the counters mutex (two goroutines on one hot key, as tasks of
// one DAG are) and the timeline journal.
func (p *prober) plumbing() error {
	const msgs = 20_000
	if err := p.perSecond("mailbox.msgs_per_s", func() (int, error) {
		m := mailbox.New[int]()
		var wg sync.WaitGroup
		for prod := 0; prod < 2; prod++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < msgs/2; i++ {
					m.Put(i)
				}
			}()
		}
		go func() {
			wg.Wait()
			m.Close()
		}()
		got := 0
		for {
			if _, ok := m.Get(); !ok {
				break
			}
			got++
		}
		if got != msgs {
			return 0, fmt.Errorf("mailbox delivered %d of %d", got, msgs)
		}
		return got, nil
	}); err != nil {
		return err
	}

	if err := p.nsPerUnit("metrics.counter_add_ns", func() (int, error) {
		c := metrics.NewCounters()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < msgs/2; i++ {
					c.Add("HOT", 1)
				}
			}()
		}
		wg.Wait()
		if got := c.Get("HOT"); got != msgs {
			return 0, fmt.Errorf("counter reads %d after %d adds", got, msgs)
		}
		return msgs, nil
	}); err != nil {
		return err
	}

	return p.nsPerUnit("timeline.record_ns", func() (int, error) {
		j := timeline.New()
		for i := 0; i < msgs; i++ {
			j.Record(timeline.Event{Type: timeline.TaskScheduled, DAG: "probe", Vertex: "map", Task: i})
		}
		if j.Len() != msgs {
			return 0, fmt.Errorf("journal holds %d of %d events", j.Len(), msgs)
		}
		return msgs, nil
	})
}

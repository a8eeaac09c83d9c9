package relop

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"tez/internal/am"
	"tez/internal/dag"
	"tez/internal/event"
	"tez/internal/library"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/row"
	"tez/internal/runtime"
)

// badHistogram sends vertex "part" a histogram nothing can decode.
type badHistogram struct{ ctx *runtime.Context }

func (p *badHistogram) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *badHistogram) Run(map[string]runtime.Input, map[string]runtime.Output) error {
	p.ctx.Emit(event.VertexManagerEvent{
		TargetVertex: "part", SrcVertex: p.ctx.Meta.Vertex, SrcTask: p.ctx.Meta.Task,
		Payload: []byte("not a histogram"),
	})
	return nil
}
func (p *badHistogram) Close() error { return nil }

// A histogram the range-partition manager cannot decode fails the DAG, with
// the manager and the sender in its diagnostics. The manager used to drop
// the event, so its vertex was never scheduled and the DAG ran until its
// deadline.
func TestCorruptHistogramFailsDAG(t *testing.T) {
	runtime.RegisterProcessor("relop.test.bad_histogram", func() runtime.Processor { return &badHistogram{} })
	plat := platform.New(platform.Fast(2))
	defer plat.Stop()
	d := dag.New("badhist")
	proc := plugin.Desc("relop.test.bad_histogram", nil) // only "hist" ever runs a task
	d.AddVertex("hist", proc, 1)
	part := d.AddVertex("part", proc, 2)
	part.Manager = plugin.Desc(RangePartitionVMName, RangePartitionVMConfig{DestVertex: "sink", Partitions: 2})
	d.Connect(part, d.AddVertex("sink", proc, 2), library.OrderedEdge(library.OrderedPartitionedConfig{}))
	sess := am.NewSession(plat, am.Config{Name: "badhist"})
	defer sess.Close()
	res, err := sess.Run(d, am.WithDeadline(20*time.Second))
	if res.Status != am.DAGFailed || err == nil {
		t.Fatalf("status %v err %v, want DAGFailed", res.Status, err)
	}
	for _, want := range []string{"vertex manager of part", RangePartitionVMName, "hist/0", "decode"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("diagnostics %q do not mention %q", err, want)
		}
	}
}

// rangeVMContext is the part of the vertex-manager context the
// range-partition manager uses; any other method panics.
type rangeVMContext struct {
	am.VertexManagerContext
	outErr    error
	scheduled []int
	failed    []error
}

func (c *rangeVMContext) Payload() []byte {
	return plugin.MustEncode(RangePartitionVMConfig{DestVertex: "sink", Partitions: 2})
}
func (c *rangeVMContext) Parallelism() int                       { return 2 }
func (c *rangeVMContext) SourceVertices() []string               { return []string{"scan"} }
func (c *rangeVMContext) SetOutEdgePayload(string, []byte) error { return c.outErr }
func (c *rangeVMContext) ScheduleTasks(tasks []int)              { c.scheduled = append(c.scheduled, tasks...) }
func (c *rangeVMContext) Fail(err error)                         { c.failed = append(c.failed, err) }

// The range-partition manager fails the DAG, and schedules nothing, on a
// histogram it cannot decode and on an out-edge reconfiguration the AM
// refuses; a good histogram schedules every task. The size statistics its
// source's shuffle output sends come first and are not a histogram.
func TestRangePartitionVMFailsInsteadOfHanging(t *testing.T) {
	good := plugin.MustEncode(PruneValues{Values: []row.Value{row.Int(1), row.Int(5), row.Int(9)}})
	refused := errors.New("refused")
	for name, tc := range map[string]struct {
		payload []byte
		outErr  error
		fails   bool
	}{
		"good":            {good, nil, false},
		"undecodable":     {[]byte("junk"), nil, true},
		"refused payload": {good, refused, true},
	} {
		ctx := &rangeVMContext{outErr: tc.outErr}
		m := &rangePartitionVM{}
		if err := m.Initialize(ctx); err != nil {
			t.Fatal(err)
		}
		m.OnVertexStarted()
		m.OnVertexManagerEvent(event.VertexManagerEvent{SrcVertex: "scan", Payload: plugin.MustEncode(library.VMStats{PartitionSizes: []int64{7, 9}})})
		if len(ctx.failed) != 0 || len(ctx.scheduled) != 0 {
			t.Fatalf("%s: source statistics taken for a histogram: failed %v, scheduled %v", name, ctx.failed, ctx.scheduled)
		}
		m.OnVertexManagerEvent(event.VertexManagerEvent{SrcVertex: "hist", Payload: tc.payload})
		if !tc.fails {
			if len(ctx.failed) != 0 || len(ctx.scheduled) != 2 {
				t.Fatalf("%s: failed %v, scheduled %v", name, ctx.failed, ctx.scheduled)
			}
			continue
		}
		if len(ctx.failed) != 1 || !strings.Contains(ctx.failed[0].Error(), RangePartitionVMName) ||
			(tc.outErr != nil && !errors.Is(ctx.failed[0], tc.outErr)) {
			t.Fatalf("%s: Fail calls = %v, want one naming the manager", name, ctx.failed)
		}
		if len(ctx.scheduled) != 0 {
			t.Fatalf("%s: scheduled %v", name, ctx.scheduled)
		}
	}
}

func TestRangeSortGlobalOrder(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	rows := make([]row.Row, n)
	for i := range rows {
		rows[i] = row.Row{row.Int(rng.Int63n(100000)), row.Int(int64(i))}
	}
	tb := h.table("rsort", row.NewSchema("k:int", "v:int"), 4, rows)

	sess := am.NewSession(h.plat, am.Config{Name: "rs"})
	defer sess.Close()
	root := StoreNode(RangeSortNode(Scan(tb), []*Expr{Col(0)}, []bool{false}, 0, 4), "/out/rs")
	res, err := RunTez(sess, Config{DefaultPartitions: 4}, "rs", []*Node{root})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadStored(h.plat.FS, "/out/rs")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("rows = %d", len(got))
	}
	// Part files concatenate in partition order → globally sorted.
	for i := 1; i < len(got); i++ {
		if row.Compare(got[i-1][0], got[i][0]) > 0 {
			t.Fatalf("order broken at %d: %v > %v", i, got[i-1][0], got[i][0])
		}
	}
	// The point of range partitioning is parallel sorting: more than one
	// task must have produced output (part files).
	if parts := len(h.plat.FS.List("/out/rs/part-")); parts < 2 {
		t.Fatalf("range sort used %d partitions", parts)
	}
	_ = res
}

func TestRangeSortDescending(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	rows := make([]row.Row, 500)
	for i := range rows {
		rows[i] = row.Row{row.Int(int64(i * 7 % 501))}
	}
	tb := h.table("rsd", row.NewSchema("k:int"), 3, rows)
	sess := am.NewSession(h.plat, am.Config{Name: "rsd"})
	defer sess.Close()
	root := StoreNode(RangeSortNode(Scan(tb), []*Expr{Col(0)}, []bool{true}, 0, 3), "/out/rsd")
	if _, err := RunTez(sess, Config{}, "rsd", []*Node{root}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStored(h.plat.FS, "/out/rsd")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("rows = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if row.Compare(got[i-1][0], got[i][0]) < 0 {
			t.Fatalf("descending order broken at %d", i)
		}
	}
}

func TestRangeSortMRFallsBackToSingleReducer(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	rows := make([]row.Row, 100)
	for i := range rows {
		rows[i] = row.Row{row.Int(int64(99 - i))}
	}
	tb := h.table("rsmr", row.NewSchema("k:int"), 2, rows)
	root := func(out string) []*Node {
		return []*Node{StoreNode(RangeSortNode(Scan(tb), []*Expr{Col(0)}, []bool{false}, 0, 4), out)}
	}
	if _, err := RunMR(h.plat, am.Config{Name: "rsmr"}, Config{}, "rsmr", root("/out/rsmr")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStored(h.plat.FS, "/out/rsmr")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if row.Compare(got[i-1][0], got[i][0]) > 0 {
			t.Fatalf("MR sort order broken at %d", i)
		}
	}
	// Degraded mode: a single reducer produced the output.
	if parts := len(h.plat.FS.List("/out/rsmr/part-")); parts != 1 {
		t.Fatalf("MR global sort used %d reducers, want 1", parts)
	}
}

// A range sort's LIMIT is global: Tez stores the first Limit rows of the
// whole input, as the MR chain's single reducer does, not Limit rows in
// every range partition.
func TestRangeSortLimitIsGlobal(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	rng := rand.New(rand.NewSource(5))
	rows := make([]row.Row, 1000)
	for i, k := range rng.Perm(len(rows)) {
		rows[i] = row.Row{row.Int(int64(k)), row.Int(int64(i))}
	}
	tb := h.table("rslim", row.NewSchema("k:int", "v:int"), 4, rows)
	root := func(out string) []*Node {
		return []*Node{StoreNode(RangeSortNode(Scan(tb), []*Expr{Col(0)}, []bool{true}, 30, 4), out)}
	}
	sess := am.NewSession(h.plat, am.Config{Name: "rslim", DisableAutoParallelism: true})
	defer sess.Close()
	if _, err := RunTez(sess, Config{DefaultPartitions: 4}, "rslim", root("/out/rslim-tez")); err != nil {
		t.Fatal(err)
	}
	if _, err := RunMR(h.plat, am.Config{Name: "rslim-mr"}, Config{}, "rslim-mr", root("/out/rslim-mr")); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{"/out/rslim-tez", "/out/rslim-mr"} {
		got, err := ReadStored(h.plat.FS, out)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 30 {
			t.Fatalf("%s: stored %d rows, want the limit's 30", out, len(got))
		}
		for i, r := range got {
			if r[0].Int != int64(999-i) {
				t.Fatalf("%s: row %d has key %d, want %d", out, i, r[0].Int, 999-i)
			}
		}
	}
}

func TestSkewJoinCorrectAndBalanced(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	rng := rand.New(rand.NewSource(3))
	// Zipf-ish: many rows on few keys.
	z := rand.NewZipf(rng, 1.3, 1, 49)
	const n = 3000
	left := make([]row.Row, n)
	counts := map[int64]int64{}
	for i := range left {
		k := int64(z.Uint64())
		counts[k]++
		left[i] = row.Row{row.Int(k), row.Int(int64(i))}
	}
	right := make([]row.Row, 50)
	for i := range right {
		right[i] = row.Row{row.Int(int64(i)), row.Int(int64(i * 100))}
	}
	lt := h.table("skl", row.NewSchema("k:int", "v:int"), 4, left)
	rt := h.table("skr", row.NewSchema("k:int", "w:int"), 2, right)

	sess := am.NewSession(h.plat, am.Config{Name: "skew", DisableAutoParallelism: true})
	defer sess.Close()
	j := SkewJoinNode(Scan(lt), Scan(rt), []*Expr{Col(0)}, []*Expr{Col(0)}, 4)
	agg := AggNode(j, nil, nil, []AggDef{{Func: "count", Name: "n"}})
	if _, err := RunTez(sess, Config{DefaultPartitions: 4}, "skew", []*Node{StoreNode(agg, "/out/skew")}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStored(h.plat.FS, "/out/skew")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range got {
		total += r[0].AsInt()
	}
	// Every left row matches exactly one right row.
	if total != n {
		t.Fatalf("join produced %d rows, want %d", total, n)
	}
}

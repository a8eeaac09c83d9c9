package relop

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"tez/internal/am"
	"tez/internal/platform"
	"tez/internal/row"
)

// harness bundles a platform with helper tables.
type harness struct {
	plat *platform.Platform
	t    *testing.T
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	return &harness{plat: platform.New(platform.Fast(4)), t: t}
}

func (h *harness) close() { h.plat.Stop() }

func (h *harness) table(name string, schema row.Schema, shards int, rows []row.Row) *Table {
	h.t.Helper()
	tb := &Table{Name: name, Schema: schema}
	if err := WriteTable(h.plat.FS, tb, shards, rows); err != nil {
		h.t.Fatal(err)
	}
	return tb
}

// runBoth executes the same plan on the Tez backend and the MR chain and
// checks both produce want (order-insensitive unless ordered).
func (h *harness) runBoth(name string, mkPlan func(out string) []*Node, want []row.Row, ordered bool) {
	h.t.Helper()
	// Tez.
	sess := am.NewSession(h.plat, am.Config{Name: name + "-tez"})
	defer sess.Close()
	outTez := "/out/" + name + "-tez"
	if _, err := RunTez(sess, Config{}, name+"-tez", mkPlan(outTez)); err != nil {
		h.t.Fatalf("tez: %v", err)
	}
	h.checkStored(outTez, want, ordered)
	// MR.
	outMR := "/out/" + name + "-mr"
	if _, err := RunMR(h.plat, am.Config{Name: name + "-mr"}, Config{}, name+"-mr", mkPlan(outMR)); err != nil {
		h.t.Fatalf("mr: %v", err)
	}
	h.checkStored(outMR, want, ordered)
}

func (h *harness) checkStored(path string, want []row.Row, ordered bool) {
	h.t.Helper()
	got, err := ReadStored(h.plat.FS, path)
	if err != nil {
		h.t.Fatal(err)
	}
	if !ordered {
		sortRows(got)
		want = append([]row.Row{}, want...)
		sortRows(want)
	}
	if len(got) != len(want) {
		h.t.Fatalf("%s: %d rows, want %d\ngot:  %v\nwant: %v", path, len(got), len(want), fmtRows(got), fmtRows(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			h.t.Fatalf("%s row %d: width %d want %d", path, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if row.Compare(got[i][j], want[i][j]) != 0 {
				h.t.Fatalf("%s row %d col %d: %v want %v\ngot:  %v\nwant: %v",
					path, i, j, got[i][j], want[i][j], fmtRows(got), fmtRows(want))
			}
		}
	}
}

func sortRows(rs []row.Row) {
	sort.Slice(rs, func(i, j int) bool {
		a := row.EncodeKey(nil, rs[i]...)
		b := row.EncodeKey(nil, rs[j]...)
		return string(a) < string(b)
	})
}

func fmtRows(rs []row.Row) string {
	var b strings.Builder
	for _, r := range rs {
		vals := make([]string, len(r))
		for i, v := range r {
			vals[i] = v.String()
		}
		fmt.Fprintf(&b, "[%s] ", strings.Join(vals, ","))
	}
	return b.String()
}

func intRows(vals ...[]int64) []row.Row {
	out := make([]row.Row, len(vals))
	for i, v := range vals {
		r := make(row.Row, len(v))
		for j, x := range v {
			r[j] = row.Int(x)
		}
		out[i] = r
	}
	return out
}

func TestScanFilterProjectStore(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	var rows []row.Row
	for i := int64(0); i < 100; i++ {
		rows = append(rows, row.Row{row.Int(i), row.Int(i * 10)})
	}
	tb := h.table("nums", row.NewSchema("a:int", "b:int"), 3, rows)
	var want []row.Row
	for i := int64(90); i < 100; i++ {
		want = append(want, row.Row{row.Int(i * 10)})
	}
	h.runBoth("sfp", func(out string) []*Node {
		s := Scan(tb)
		f := FilterNode(s, Cmp(">=", Col(0), LitInt(90)))
		p := ProjectNode(f, []*Expr{Col(1)}, []string{"b"}, []row.Kind{row.KindInt})
		return []*Node{StoreNode(p, out)}
	}, want, false)
}

func TestShuffleJoin(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	left := h.table("l", row.NewSchema("id:int", "lv:int"), 2, intRows(
		[]int64{1, 10}, []int64{2, 20}, []int64{2, 21}, []int64{3, 30}, []int64{5, 50}))
	right := h.table("r", row.NewSchema("id:int", "rv:int"), 2, intRows(
		[]int64{2, 200}, []int64{2, 201}, []int64{3, 300}, []int64{4, 400}))
	want := intRows(
		[]int64{2, 20, 2, 200}, []int64{2, 20, 2, 201},
		[]int64{2, 21, 2, 200}, []int64{2, 21, 2, 201},
		[]int64{3, 30, 3, 300})
	h.runBoth("join", func(out string) []*Node {
		j := JoinNode(Scan(left), Scan(right), []*Expr{Col(0)}, []*Expr{Col(0)}, false)
		return []*Node{StoreNode(j, out)}
	}, want, false)
}

func TestBroadcastJoinTezOnly(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	big := h.table("big", row.NewSchema("k:int", "v:int"), 3, intRows(
		[]int64{1, 1}, []int64{2, 2}, []int64{1, 3}, []int64{9, 9}))
	small := h.table("small", row.NewSchema("k:int", "name:int"), 1, intRows(
		[]int64{1, 100}, []int64{2, 200}))
	plan := func(out string) []*Node {
		j := JoinNode(Scan(big), Scan(small), []*Expr{Col(0)}, []*Expr{Col(0)}, true)
		return []*Node{StoreNode(j, out)}
	}
	sess := am.NewSession(h.plat, am.Config{Name: "bj"})
	defer sess.Close()
	// One probe task per shard of big (library-sized, three tiny shards
	// are one task and the cache-off count below has nothing to count).
	perBlock := Config{SplitSize: h.plat.FS.BlockSize()}
	res, err := RunTez(sess, perBlock, "bj", plan("/out/bj"))
	if err != nil {
		t.Fatal(err)
	}
	want := intRows(
		[]int64{1, 1, 1, 100}, []int64{1, 3, 1, 100}, []int64{2, 2, 2, 200})
	h.checkStored("/out/bj", want, false)
	if res.Counters.Get("HASHTABLE_BUILDS") == 0 {
		t.Fatal("no hash table build recorded")
	}
	// MR must reject broadcast joins.
	if _, err := RunMR(h.plat, am.Config{Name: "bjmr"}, perBlock, "bjmr", plan("/out/bjmr")); err == nil {
		t.Fatal("MR accepted a broadcast join")
	}
	// With the registry cache off every probe task (one per shard of big)
	// builds its own table, and the counter says so.
	perBlock.DisableRegistryCache = true
	res, err = RunTez(sess, perBlock, "bj-nocache", plan("/out/bj-nocache"))
	if err != nil {
		t.Fatal(err)
	}
	h.checkStored("/out/bj-nocache", want, false)
	builds, hits := res.Counters.Get("HASHTABLE_BUILDS"), res.Counters.Get("HASHTABLE_CACHE_HITS")
	if builds != int64(len(big.Files)) || hits != 0 {
		t.Fatalf("cache off: %d builds, %d hits; want %d builds (one per probe task), 0 hits", builds, hits, len(big.Files))
	}
}

func TestAggregations(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	tb := h.table("sales", row.NewSchema("cat:string", "amt:int"), 2, []row.Row{
		{row.String("a"), row.Int(10)},
		{row.String("a"), row.Int(20)},
		{row.String("b"), row.Int(5)},
		{row.String("b"), row.Int(7)},
		{row.String("b"), row.Int(9)},
	})
	want := []row.Row{
		{row.String("a"), row.Float(30), row.Int(2), row.Float(15), row.Int(10), row.Int(20)},
		{row.String("b"), row.Float(21), row.Int(3), row.Float(7), row.Int(5), row.Int(9)},
	}
	h.runBoth("agg", func(out string) []*Node {
		a := AggNode(Scan(tb), []*Expr{Col(0)}, []string{"cat"}, []AggDef{
			{Func: "sum", Arg: Col(1), Name: "s"},
			{Func: "count", Arg: nil, Name: "c"},
			{Func: "avg", Arg: Col(1), Name: "av"},
			{Func: "min", Arg: Col(1), Name: "mn"},
			{Func: "max", Arg: Col(1), Name: "mx"},
		})
		return []*Node{StoreNode(a, out)}
	}, want, false)
}

func TestSortWithLimitAndDesc(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	tb := h.table("vals", row.NewSchema("v:int"), 3, intRows(
		[]int64{5}, []int64{3}, []int64{9}, []int64{1}, []int64{7}))
	want := intRows([]int64{9}, []int64{7}, []int64{5})
	h.runBoth("sortdesc", func(out string) []*Node {
		s := SortNode(Scan(tb), []*Expr{Col(0)}, []bool{true}, 3)
		return []*Node{StoreNode(s, out)}
	}, want, true)
}

func TestDistinctAndUnion(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	a := h.table("ua", row.NewSchema("v:int"), 2, intRows([]int64{1}, []int64{2}, []int64{2}))
	b := h.table("ub", row.NewSchema("v:int"), 2, intRows([]int64{2}, []int64{3}))
	want := intRows([]int64{1}, []int64{2}, []int64{3})
	h.runBoth("du", func(out string) []*Node {
		u := UnionNode(Scan(a), Scan(b))
		d := DistinctNode(u)
		return []*Node{StoreNode(d, out)}
	}, want, false)
}

func TestReduceToReduceChaining(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	// Orders per customer, then join the per-customer counts with names.
	orders := h.table("orders2", row.NewSchema("cust:int", "amt:int"), 3, intRows(
		[]int64{1, 10}, []int64{1, 20}, []int64{2, 5}, []int64{3, 1}, []int64{3, 2}, []int64{3, 3}))
	custs := h.table("custs2", row.NewSchema("id:int", "tier:int"), 2, intRows(
		[]int64{1, 100}, []int64{2, 200}, []int64{3, 300}))
	want := []row.Row{
		{row.Int(1), row.Int(2), row.Int(1), row.Int(100)},
		{row.Int(2), row.Int(1), row.Int(2), row.Int(200)},
		{row.Int(3), row.Int(3), row.Int(3), row.Int(300)},
	}
	h.runBoth("chain", func(out string) []*Node {
		agg := AggNode(Scan(orders), []*Expr{Col(0)}, []string{"cust"}, []AggDef{
			{Func: "count", Name: "n"},
		})
		// agg output: (cust, n float->count is Int)
		j := JoinNode(agg, Scan(custs), []*Expr{Col(0)}, []*Expr{Col(0)}, false)
		return []*Node{StoreNode(j, out)}
	}, want, false)
}

func TestMultipleStoresSharedSubplan(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	tb := h.table("ev", row.NewSchema("v:int"), 2, intRows(
		[]int64{1}, []int64{2}, []int64{3}, []int64{4}))
	// Split: evens to one store, odds to another (Pig SPLIT shape).
	sess := am.NewSession(h.plat, am.Config{Name: "split"})
	defer sess.Close()
	scan := Scan(tb)
	evens := FilterNode(scan, Or(Eq(Col(0), LitInt(2)), Eq(Col(0), LitInt(4))))
	odds := FilterNode(scan, Or(Eq(Col(0), LitInt(1)), Eq(Col(0), LitInt(3))))
	roots := []*Node{
		StoreNode(evens, "/out/split-even"),
		StoreNode(odds, "/out/split-odd"),
	}
	if _, err := RunTez(sess, Config{}, "split", roots); err != nil {
		t.Fatal(err)
	}
	h.checkStored("/out/split-even", intRows([]int64{2}, []int64{4}), false)
	h.checkStored("/out/split-odd", intRows([]int64{1}, []int64{3}), false)
}

func TestDynamicPartitionPruning(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	// Fact table partitioned by day; dim filter keeps only day 2.
	var fact []row.Row
	for day := int64(0); day < 5; day++ {
		for i := int64(0); i < 20; i++ {
			fact = append(fact, row.Row{row.Int(day), row.Int(day*1000 + i)})
		}
	}
	factT := &Table{Name: "fact", Schema: row.NewSchema("day:int", "v:int")}
	if err := WritePartitionedTable(h.plat.FS, factT, 0, fact); err != nil {
		t.Fatal(err)
	}
	if len(factT.Files) != 5 {
		t.Fatalf("partition files = %d", len(factT.Files))
	}
	dimT := h.table("days", row.NewSchema("day:int", "flag:int"), 1, intRows(
		[]int64{0, 0}, []int64{1, 0}, []int64{2, 1}, []int64{3, 0}, []int64{4, 0}))

	dimScan := Scan(dimT)
	dimFiltered := FilterNode(dimScan, Eq(Col(1), LitInt(1)))
	factScan := Scan(factT)
	factScan.Prune = &PruneSpec{SourceNode: dimFiltered, KeyExpr: Col(0)}
	j := JoinNode(factScan, dimFiltered, []*Expr{Col(0)}, []*Expr{Col(0)}, false)
	agg := AggNode(j, nil, nil, []AggDef{{Func: "count", Name: "n"}})
	roots := []*Node{StoreNode(agg, "/out/prune")}

	before := h.plat.FS.BytesRead()
	sess := am.NewSession(h.plat, am.Config{Name: "prune"})
	defer sess.Close()
	if _, err := RunTez(sess, Config{}, "prune", roots); err != nil {
		t.Fatal(err)
	}
	h.checkStored("/out/prune", []row.Row{{row.Int(20)}}, false)

	// Now the unpruned variant must read strictly more fact bytes.
	prunedBytes := h.plat.FS.BytesRead() - before
	factScan2 := Scan(factT)
	dim2 := FilterNode(Scan(dimT), Eq(Col(1), LitInt(1)))
	j2 := JoinNode(factScan2, dim2, []*Expr{Col(0)}, []*Expr{Col(0)}, false)
	agg2 := AggNode(j2, nil, nil, []AggDef{{Func: "count", Name: "n"}})
	before2 := h.plat.FS.BytesRead()
	if _, err := RunTez(sess, Config{}, "noprune", []*Node{StoreNode(agg2, "/out/noprune")}); err != nil {
		t.Fatal(err)
	}
	h.checkStored("/out/noprune", []row.Row{{row.Int(20)}}, false)
	unprunedBytes := h.plat.FS.BytesRead() - before2
	if prunedBytes >= unprunedBytes {
		t.Fatalf("pruning read %d bytes, unpruned %d", prunedBytes, unprunedBytes)
	}
}

func TestGlobalAggregationEmptyGroup(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	tb := h.table("g", row.NewSchema("v:int"), 2, intRows([]int64{1}, []int64{2}, []int64{3}))
	want := []row.Row{{row.Float(6), row.Int(3)}}
	h.runBoth("gagg", func(out string) []*Node {
		a := AggNode(Scan(tb), nil, nil, []AggDef{
			{Func: "sum", Arg: Col(0), Name: "s"},
			{Func: "count", Name: "c"},
		})
		return []*Node{StoreNode(a, out)}
	}, want, false)
}

// TestGlobalAggregationOverNoRows: a group-less aggregate whose filter
// drops every row still writes its one row, as SQL does — count 0 and NULL
// for sum, avg, min and max — on Tez and on the MR chain, each with four
// aggregate tasks.
func TestGlobalAggregationOverNoRows(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	tb := h.table("g0", row.NewSchema("v:int"), 2, intRows([]int64{1}, []int64{2}, []int64{3}))
	want := []row.Row{{row.Int(0), row.Int(0), row.Null(), row.Null(), row.Null(), row.Null()}}
	h.runBoth("gagg0", func(out string) []*Node {
		a := AggNode(FilterNode(Scan(tb), Cmp("<", Col(0), LitInt(0))), nil, nil, []AggDef{
			{Func: "count", Name: "n"},
			{Func: "count", Arg: Col(0), Name: "c"},
			{Func: "sum", Arg: Col(0), Name: "s"},
			{Func: "avg", Arg: Col(0), Name: "a"},
			{Func: "min", Arg: Col(0), Name: "lo"},
			{Func: "max", Arg: Col(0), Name: "hi"},
		})
		return []*Node{StoreNode(a, out)}
	}, want, false)
}

// TestValidateExpressions pins the plan-time expression check: nil nodes
// and wrong arities are refused wherever a plan carries an expression,
// while unknown kinds, unknown operators and out-of-range columns keep
// their defined null semantics and pass.
func TestValidateExpressions(t *testing.T) {
	tb := &Table{Name: "t", Schema: row.NewSchema("a:int", "b:int")}
	oneArgCmp := &Expr{Kind: "cmp", Op: "=", Args: []*Expr{Col(0)}}
	cases := []struct {
		name string
		node *Node
		ok   bool
	}{
		{"well-formed", FilterNode(Scan(tb), And(Cmp("<", Col(0), LitInt(3)), Not(Col(1)))), true},
		{"unknown kind", FilterNode(Scan(tb), &Expr{Kind: "like"}), true},
		{"unknown operator", FilterNode(Scan(tb), Cmp("~", Col(0), Arith("%", Col(1), LitInt(2)))), true},
		{"out-of-range column", FilterNode(Scan(tb), Col(7)), true},
		{"filter: cmp with one operand", FilterNode(Scan(tb), oneArgCmp), false},
		{"filter: nil child", FilterNode(Scan(tb), And(Col(0), nil)), false},
		{"scan filter: nested nil", &Node{Op: "scan", Table: tb, OutSchema: tb.Schema, Filter: Not(nil)}, false},
		{"project: arith with three operands", ProjectNode(Scan(tb),
			[]*Expr{{Kind: "arith", Op: "+", Args: []*Expr{Col(0), Col(1), Col(0)}}}, []string{"x"}, nil), false},
		{"project: nil expression", ProjectNode(Scan(tb), []*Expr{nil}, []string{"x"}, nil), false},
		{"join key: not without operand", JoinNode(Scan(tb), Scan(tb),
			[]*Expr{{Kind: "not"}}, []*Expr{Col(0)}, false), false},
		{"sort key: cmp with one operand", SortNode(Scan(tb), []*Expr{oneArgCmp}, nil, 0), false},
		{"group key: nil", AggNode(Scan(tb), []*Expr{nil}, []string{"g"}, nil), false},
		{"aggregate argument: cmp with one operand", AggNode(Scan(tb), nil, nil,
			[]AggDef{{Func: "sum", Arg: oneArgCmp, Name: "s"}}), false},
		{"count(*) has no argument", AggNode(Scan(tb), nil, nil, []AggDef{{Func: "count", Name: "n"}}), true},
	}
	for _, c := range cases {
		err := Validate([]*Node{StoreNode(c.node, "/out/v")})
		if c.ok && err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}

	// The kernel entry point of the benchmark applies the same check to the
	// spec it is handed, and refuses a non-positive batch size.
	bad := EmitSpec{Kind: EmitSink, Tag: -1, Pipe: []PipeOp{{Kind: "filter", Filter: oneArgCmp}}}
	if _, err := RunEmitBench(bad, nil, nil, nil, DefaultBatchSize, &captureWriter{}); err == nil {
		t.Error("RunEmitBench accepted a cmp with one operand")
	}
	good := EmitSpec{Kind: EmitSink, Tag: -1}
	if _, err := RunEmitBench(good, nil, nil, nil, 0, &captureWriter{}); err == nil {
		t.Error("RunEmitBench accepted batch size 0")
	}
}

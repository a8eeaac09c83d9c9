package relop

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tez/internal/am"
	"tez/internal/row"
)

// The tables of the fusion tests: two join keys per side (an int and a
// string), an int and a quarter-valued float argument column, and on the
// right an unread padding column. Join output columns: lk 0, ls 1, la 2,
// lx 3, rk 4, rs 5, rb 6, ry 7, rpad 8.
var (
	fuseLeft  = row.NewSchema("lk:int", "ls", "la:int", "lx:float")
	fuseRight = row.NewSchema("rk:int", "rs", "rb:int", "ry:float", "rpad")
)

// fuseAggs covers count/sum/avg/min/max over the int and float columns of
// both sides, and count(*).
var fuseAggs = []AggDef{
	{Func: "count", Name: "n"},
	{Func: "count", Arg: Col(2), Name: "n_la"},
	{Func: "sum", Arg: Col(2), Name: "s_la"},
	{Func: "avg", Arg: Col(3), Name: "a_lx"},
	{Func: "max", Arg: Col(2), Name: "mx_la"},
	{Func: "min", Arg: Col(3), Name: "mn_lx"},
	{Func: "min", Arg: Col(6), Name: "mn_rb"},
	{Func: "avg", Arg: Col(6), Name: "a_rb"},
	{Func: "sum", Arg: Col(7), Name: "s_ry"},
	{Func: "max", Arg: Col(7), Name: "mx_ry"},
}

// randFuseRows draws n rows of the given width: keys from [lo, lo+6) with
// nulls (so some keys go unmatched on each side), arguments with nulls.
func randFuseRows(rng *rand.Rand, n, lo, width int) []row.Row {
	maybeNull := func(v row.Value) row.Value {
		if rng.Intn(8) == 0 {
			return row.Null()
		}
		return v
	}
	rows := make([]row.Row, n)
	for i := range rows {
		k := lo + rng.Intn(6)
		r := row.Row{
			maybeNull(row.Int(int64(k))),
			maybeNull(row.String(fmt.Sprintf("k%d", k%4))),
			maybeNull(row.Int(int64(rng.Intn(11) - 5))),
			maybeNull(row.Float(float64(rng.Intn(17)-8) / 4)),
		}
		if width > 4 {
			r = append(r, row.String(strings.Repeat("x", rng.Intn(12))))
		}
		rows[i] = r
	}
	return rows
}

// refJoinAgg is the plain-Go answer: the inner join on key bytes (as the
// shuffle join matches: null keys meet null keys), grouped by the group
// columns' key bytes, aggregated over non-null arguments.
func refJoinAgg(left, right []row.Row, keysL, keysR []int, groupBy []int, aggs []AggDef) []row.Row {
	keyOf := func(r row.Row, cols []int) string {
		var k []byte
		for _, c := range cols {
			k = row.EncodeKey(k, r[c])
		}
		return string(k)
	}
	var ref refGroups
	for _, l := range left {
		for _, r := range right {
			if keyOf(l, keysL) == keyOf(r, keysR) {
				p := append(append(row.Row{}, l...), r...)
				var key row.Row
				for _, c := range groupBy {
					key = append(key, p[c])
				}
				ref.add(key, p, aggs)
			}
		}
	}
	return ref.rows(aggs)
}

// encodedSorted renders rows as their row.Encode bytes, sorted: the
// comparison form that tells Int(1) from Float(1) and -0 from +0.
func encodedSorted(rows []row.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(row.Encode(nil, r))
	}
	sort.Strings(out)
	return out
}

func (h *harness) sameRows(what string, got, want []row.Row) {
	h.t.Helper()
	g, w := encodedSorted(got), encodedSorted(want)
	if strings.Join(g, "\n") != strings.Join(w, "\n") {
		sortRows(got)
		sortRows(want)
		h.t.Fatalf("%s: %d rows, want %d\ngot:  %v\nwant: %v", what, len(got), len(want), fmtRows(got), fmtRows(want))
	}
}

// runTez runs roots as one DAG and returns the rows stored at out.
func (h *harness) runTez(sess *am.Session, name string, roots []*Node, out string) []row.Row {
	h.t.Helper()
	if _, err := RunTez(sess, Config{}, name, roots); err != nil {
		h.t.Fatalf("%s on tez: %v", name, err)
	}
	return h.stored(out)
}

// stored reads back the rows a store wrote at out.
func (h *harness) stored(out string) []row.Row {
	h.t.Helper()
	rows, err := ReadStored(h.plat.FS, out)
	if err != nil {
		h.t.Fatal(err)
	}
	return rows
}

// runMR runs roots as a job chain, returning the stored rows and the
// chain's job count.
func (h *harness) runMR(name string, roots []*Node, out string) ([]row.Row, int) {
	h.t.Helper()
	stats, err := RunMR(h.plat, am.Config{Name: name}, Config{}, name, roots)
	if err != nil {
		h.t.Fatalf("%s on mr: %v", name, err)
	}
	return h.stored(out), stats.Jobs
}

// aggVertices counts the compiled DAG's aggregate vertices.
func aggVertices(t *testing.T, roots []*Node) int {
	t.Helper()
	d, err := EmitDAGOnly(Config{}, "shape", roots)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, v := range d.Vertices {
		if strings.HasSuffix(v.Name, "_agg") {
			n++
		}
	}
	return n
}

// TestFusedJoinAggMatchesTwoStage: an aggregate grouped by its shuffle
// join's key runs in the join's tasks — no aggregate vertex on Tez, one job
// fewer on the MR chain — and answers exactly what the two-stage plan (the
// same aggregate behind a pass-through filter, which fusion does not look
// through) and a plain-Go reference answer. Random tables: 1- and 2-column
// keys on int and string columns, duplicate, null and unmatched keys, empty
// sides, and now and then a hot key whose product outgrows a batch. A
// GROUP BY over part of a 2-column key, or over a non-key column, does not
// fuse.
func TestFusedJoinAggMatchesTwoStage(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	sess := am.NewSession(h.plat, am.Config{Name: "fuse"})
	defer sess.Close()
	rng := rand.New(rand.NewSource(29))

	type shape struct {
		name    string
		groupBy []int
		fuses   bool
	}
	configs := []struct {
		name         string
		keysL, keysR []int
		shapes       []shape
	}{
		{"int", []int{0}, []int{0}, []shape{
			{"left", []int{0}, true}, {"right", []int{4}, true}, {"both", []int{0, 4}, true},
			{"nonkey", []int{2}, false},
		}},
		{"string", []int{1}, []int{1}, []shape{
			{"left", []int{1}, true}, {"right", []int{5}, true}, {"both", []int{5, 1}, true},
			{"nonkey", []int{6}, false},
		}},
		{"int+string", []int{0, 1}, []int{0, 1}, []shape{
			{"left", []int{0, 1}, true}, {"right", []int{4, 5}, true}, {"both", []int{0, 5}, true},
			{"subset", []int{0}, false}, {"nonkey", []int{0, 1, 2}, false},
		}},
	}
	cols := func(cs []int) []*Expr {
		out := make([]*Expr, len(cs))
		for i, c := range cs {
			out[i] = Col(c)
		}
		return out
	}
	for trial := 0; trial < 4; trial++ {
		var lRows, rRows []row.Row
		switch trial {
		case 1:
			rRows = randFuseRows(rng, 20, 2, 5) // empty left side
		default:
			lRows = randFuseRows(rng, 10+rng.Intn(40), 0, 4)
			rRows = randFuseRows(rng, 10+rng.Intn(40), 2, 5)
		}
		if trial == 3 {
			// One key whose product (40 × 40) spans two batches.
			for i := 0; i < 40; i++ {
				lRows = append(lRows, row.Row{row.Int(3), row.String("k3"), row.Int(int64(i % 7)), row.Float(float64(i) / 4)})
				rRows = append(rRows, row.Row{row.Int(3), row.String("k3"), row.Null(), row.Float(float64(-i) / 4), row.String("p")})
			}
		}
		lt := h.table(fmt.Sprintf("fl%d", trial), fuseLeft, 2, lRows)
		rt := h.table(fmt.Sprintf("fr%d", trial), fuseRight, 2, rRows)
		for _, cfg := range configs {
			for _, sh := range cfg.shapes {
				name := fmt.Sprintf("fuse%d-%s-%s", trial, cfg.name, sh.name)
				plan := func(out string, twoStage bool) []*Node {
					in := JoinNode(Scan(lt), Scan(rt), cols(cfg.keysL), cols(cfg.keysR), false)
					if twoStage {
						in = FilterNode(in, LitInt(1))
					}
					names := make([]string, len(sh.groupBy))
					a := AggNode(in, cols(sh.groupBy), names, fuseAggs)
					return []*Node{StoreNode(a, out)}
				}
				want := refJoinAgg(lRows, rRows, cfg.keysL, cfg.keysR, sh.groupBy, fuseAggs)

				if got := aggVertices(t, plan("/x", false)); (got == 0) != sh.fuses {
					t.Fatalf("%s: %d aggregate vertices, want fusion %v", name, got, sh.fuses)
				}
				if aggVertices(t, plan("/x", true)) != 1 {
					t.Fatalf("%s: the two-stage plan fused", name)
				}
				out := "/out/" + name
				h.sameRows(name+" tez", h.runTez(sess, name, plan(out, false), out), want)
				h.sameRows(name+" two-stage", h.runTez(sess, name+"-2", plan(out+"-2", true), out+"-2"), want)
				got, jobs := h.runMR(name+"-mr", plan(out+"-mr", false), out+"-mr")
				h.sameRows(name+" mr", got, want)
				if wantJobs := map[bool]int{true: 1, false: 2}[sh.fuses]; jobs != wantJobs {
					t.Fatalf("%s: %d MR jobs, want %d", name, jobs, wantJobs)
				}
			}
		}
	}
}

// TestJoinSidesShipWhatIsRead: a join's sides ship the columns read above
// it and their keys. Read by an aggregate and a projection, the join is
// not fused and ships the union of what both read; under a store it ships
// whole rows; a column reference past the row's end still reads null.
func TestJoinSidesShipWhatIsRead(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	sess := am.NewSession(h.plat, am.Config{Name: "ship"})
	defer sess.Close()
	rng := rand.New(rand.NewSource(31))
	lRows, rRows := randFuseRows(rng, 40, 0, 4), randFuseRows(rng, 40, 2, 5)
	lt, rt := h.table("sl", fuseLeft, 2, lRows), h.table("sr", fuseRight, 2, rRows)
	join := func() *Node { return JoinNode(Scan(lt), Scan(rt), []*Expr{Col(0)}, []*Expr{Col(0)}, false) }
	var product []row.Row
	for _, l := range lRows {
		for _, r := range rRows {
			if bytes.Equal(row.EncodeKey(nil, l[0]), row.EncodeKey(nil, r[0])) {
				product = append(product, append(append(row.Row{}, l...), r...))
			}
		}
	}
	project := func(rows []row.Row, exprs ...*Expr) []row.Row {
		out := make([]row.Row, len(rows))
		for i, r := range rows {
			out[i] = EvalAll(exprs, r)
		}
		return out
	}
	explain := func(roots []*Node) string {
		d, err := EmitDAGOnly(Config{}, "ship", roots)
		if err != nil {
			t.Fatal(err)
		}
		return ExplainStages(d)
	}

	// Two consumers: an aggregate reading lk and la, a projection reading
	// ry and a column past the end. Each side ships two columns.
	aggDefs := []AggDef{{Func: "sum", Arg: Col(2), Name: "s"}, {Func: "count", Arg: Col(99), Name: "n"}}
	twoReaders := func(out string) []*Node {
		j := join()
		a := AggNode(j, []*Expr{Col(0)}, []string{"k"}, aggDefs)
		p := ProjectNode(j, []*Expr{Col(7), Col(99), Col(-1)}, []string{"ry", "past", "before"}, nil)
		return []*Node{StoreNode(a, out+"-agg"), StoreNode(p, out+"-proj")}
	}
	text := explain(twoReaders("/x"))
	for _, want := range []string{
		"emit shuffle -> s03_join (1 ops) cols=2", // each side: key + one read column
		"group agg\n", "  group join\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("two readers: explain lacks %q:\n%s", want, text)
		}
	}
	wantAgg := refJoinAgg(lRows, rRows, []int{0}, []int{0}, []int{0}, aggDefs)
	wantProj := project(product, Col(7), Col(99), Col(-1))
	if len(wantProj) == 0 {
		t.Fatal("the random tables share no key")
	}
	h.sameRows("two readers: agg", h.runTez(sess, "ship2", twoReaders("/out/ship2"), "/out/ship2-agg"), wantAgg)
	h.sameRows("two readers: project", h.stored("/out/ship2-proj"), wantProj)
	gotAgg, _ := h.runMR("ship2-mr", twoReaders("/out/ship2-mr"), "/out/ship2-mr-agg")
	h.sameRows("two readers on mr: agg", gotAgg, wantAgg)
	h.sameRows("two readers on mr: project", h.stored("/out/ship2-mr-proj"), wantProj)

	// Under a store the join ships whole rows: no projection anywhere.
	stored := func(out string) []*Node { return []*Node{StoreNode(join(), out)} }
	if text := explain(stored("/x")); strings.Contains(text, "cols=") || !strings.Contains(text, "emit shuffle -> s03_join (0 ops)") {
		t.Fatalf("a stored join was pruned:\n%s", text)
	}
	h.sameRows("stored join", h.runTez(sess, "ship-store", stored("/out/ship-store"), "/out/ship-store"), product)

	// A fused aggregate over a column past the end: count 0, sum null.
	pastEnd := []AggDef{{Func: "count", Arg: Col(99), Name: "n"}, {Func: "sum", Arg: Col(99), Name: "s"}}
	fused := func(out string) []*Node {
		return []*Node{StoreNode(AggNode(join(), []*Expr{Col(4)}, []string{"k"}, pastEnd), out)}
	}
	if aggVertices(t, fused("/x")) != 0 {
		t.Fatal("aggregate by the right key did not fuse")
	}
	h.sameRows("past the end", h.runTez(sess, "ship-past", fused("/out/ship-past"), "/out/ship-past"),
		refJoinAgg(lRows, rRows, []int{0}, []int{0}, []int{4}, pastEnd))
}

// TestVecJoinAggIdentityRandom byte-compares the fused join aggregate —
// product rows batched across groups at batch sizes ≤ 8, so groups start
// mid-batch and span flushes — with the oracle's join feeding its
// aggregate one product row at a time in product order. Float sums are
// compared bit for bit: both fold in product order.
func TestVecJoinAggIdentityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	funcs := []string{"sum", "count", "min", "max", "avg"}
	for trial := 0; trial < 100; trial++ {
		widths := []int{1 + rng.Intn(3), 1 + rng.Intn(3)}
		total := widths[0] + widths[1]
		g := &GroupOp{Kind: "join", GroupWidth: 1, AggInput: []*Expr{Col(0)}}
		for i := 0; i < 1+rng.Intn(4); i++ {
			g.Aggs = append(g.Aggs, AggFuncSpec{Func: funcs[rng.Intn(len(funcs))], Col: 1 + i})
			g.AggInput = append(g.AggInput, randVecExpr(rng, total, 1))
		}
		rowW, vecW := &captureWriter{}, &captureWriter{}
		spec := EmitSpec{Kind: EmitSink, Output: "sink", Tag: -1}
		rowEm := &emitter{spec: spec, writer: rowW}
		vecEm := newVecEmitter(spec, vecW, nil, 1+rng.Intn(8))
		size := 1 + rng.Intn(8)
		var groups [][][]byte
		p := &stageProcessor{}
		for grp := 1 + rng.Intn(8); grp > 0; grp-- {
			values := randJoinGroup(rng, widths, false)
			groups = append(groups, values)
			var product []row.Row
			if err := p.joinGroup(values, func(r row.Row) error {
				product = append(product, EvalAll(g.AggInput, r))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(product) > 0 {
				states := make([]aggState, len(g.Aggs))
				for _, r := range product {
					for i, a := range g.Aggs {
						states[i].observe(r[a.Col])
					}
				}
				out, err := finalizeAgg(g, product[0][:1], states)
				if err != nil {
					t.Fatal(err)
				}
				if err := rowEm.emit(out); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := foldSorted(g, size, ascendingGroups(groups), []*vecEmitter{vecEm}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := vecEm.close(); err != nil {
			t.Fatal(err)
		}
		sameRecords(t, fmt.Sprintf("trial %d", trial), rowW.kvs, vecW.kvs)
	}
}

// TestTopKEmitKeepsSmallest: a limited shuffle emit writes exactly the
// first k of the (key, value)-sorted records the unlimited emit writes —
// with many ties in the key and duplicate rows — and never more than k.
func TestTopKEmitKeepsSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		spec := EmitSpec{Kind: EmitShuffle, Output: "sort", Tag: -1,
			Keys: []*Expr{Col(0)}, Desc: []bool{rng.Intn(2) == 0}}
		if trial%5 == 4 {
			spec.Keys, spec.Desc = []*Expr{LitInt(0)}, []bool{false} // LIMIT without ORDER BY
		}
		all, top := &captureWriter{}, &captureWriter{}
		unlimited := newVecEmitter(spec, all, nil, 1+rng.Intn(16))
		spec.Limit = 1 + rng.Intn(12)
		limited := newVecEmitter(spec, top, nil, 1+rng.Intn(16))
		var enc []byte
		for i := rng.Intn(80); i > 0; i-- {
			enc = row.Encode(enc[:0], row.Row{row.Int(int64(rng.Intn(4))), row.Int(int64(rng.Intn(3)))})
			for _, em := range []*vecEmitter{unlimited, limited} {
				if err := em.add(enc); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, em := range []*vecEmitter{unlimited, limited} {
			if err := em.close(); err != nil {
				t.Fatal(err)
			}
		}
		want := all.kvs
		sort.SliceStable(want, func(i, j int) bool {
			return compareRecords(kvRecord{want[i].key, want[i].val}, kvRecord{want[j].key, want[j].val}) < 0
		})
		if len(want) > spec.Limit {
			want = want[:spec.Limit]
		}
		sameRecords(t, fmt.Sprintf("trial %d (k=%d)", trial, spec.Limit), want, top.kvs)
		if limited.count != int64(len(top.kvs)) {
			t.Fatalf("trial %d: counted %d, wrote %d", trial, limited.count, len(top.kvs))
		}
	}
}

// TestSortLimitTopKAtProducers: an ORDER BY … LIMIT k plan — ascending and
// descending over a key with many ties, and a LIMIT without ORDER BY —
// stores the first k rows of the same plan without the limit, on Tez and
// through the MR chain, while each of the ≥ 3 scan tasks ships at most k
// records to the sort.
func TestSortLimitTopKAtProducers(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	sess := am.NewSession(h.plat, am.Config{Name: "topk", DisableAutoParallelism: true})
	defer sess.Close()
	rng := rand.New(rand.NewSource(43))
	const shards, k = 4, 7
	var rows []row.Row
	for i := 0; i < 160; i++ {
		rows = append(rows, row.Row{row.Int(int64(rng.Intn(3))), row.Int(int64(rng.Intn(5))),
			row.String(fmt.Sprintf("s%d", rng.Intn(4)))})
	}
	tb := h.table("topk", row.NewSchema("g:int", "v:int", "s"), shards, rows)
	perBlock := Config{SplitSize: h.plat.FS.BlockSize()}
	for _, f := range tb.Files {
		if sz, _ := h.plat.FS.Size(f); sz > h.plat.FS.BlockSize() {
			t.Fatalf("%s spans blocks: the scan would have more than %d tasks", f, shards)
		}
	}
	for _, c := range []struct {
		name string
		keys []*Expr
		desc []bool
	}{
		{"asc", []*Expr{Col(0)}, []bool{false}},
		{"desc", []*Expr{Col(0)}, []bool{true}},
		{"two-keys", []*Expr{Col(0), Col(2)}, []bool{true, false}},
		{"no-order", []*Expr{LitInt(0)}, []bool{false}},
	} {
		plan := func(out string, limit int) []*Node {
			return []*Node{StoreNode(SortNode(Scan(tb), c.keys, c.desc, limit), out)}
		}
		out := "/out/topk-" + c.name
		res, err := RunTez(sess, perBlock, "topk-"+c.name, plan(out, k))
		if err != nil {
			t.Fatal(err)
		}
		// One emit per scan task, one sink: every scan task ships min(k,
		// its rows) = k records, the sort stores k.
		if got := res.Counters.Get("ROWS_EMITTED"); got != (shards+1)*k {
			t.Fatalf("%s: %d rows emitted, want %d from %d scan tasks and the sort", c.name, got, (shards+1)*k, shards)
		}
		if _, err := RunTez(sess, perBlock, "topk-all-"+c.name, plan(out+"-all", 0)); err != nil {
			t.Fatal(err)
		}
		all := h.stored(out + "-all")
		if _, err := RunMR(h.plat, am.Config{Name: "topk-mr"}, perBlock, "topk-mr-"+c.name, plan(out+"-mr", k)); err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{out, out + "-mr"} {
			if got := h.stored(path); !bytes.Equal(encodeAll(got), encodeAll(all[:k])) {
				t.Fatalf("%s: stored %v, want the first %d of %v", path, fmtRows(got), k, fmtRows(all))
			}
		}
	}
}

// encodeAll concatenates the rows' row.Encode bytes, in order.
func encodeAll(rows []row.Row) []byte {
	var buf []byte
	for _, r := range rows {
		buf = row.Encode(buf, r)
	}
	return buf
}

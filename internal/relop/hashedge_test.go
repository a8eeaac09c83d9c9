package relop

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"tez/internal/am"
	"tez/internal/col"
	"tez/internal/library"
	"tez/internal/row"
)

// Tests of the hash-partitioned edge (hashedge.go): which plans take it,
// and that a plan that does answers exactly what the ordered edge, the MR
// chain and a plain-Go reference answer.

// edgeCounts compiles roots for Tez and counts its scatter-gather edges
// by kind.
func edgeCounts(t *testing.T, roots []*Node) (hash, ordered int) {
	t.Helper()
	d, err := EmitDAGOnly(Config{}, "edges", roots)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range d.Edges {
		switch e.Property.Output.Name {
		case library.UnorderedPartitionedOutputName:
			hash++
		case library.OrderedPartitionedOutputName:
			ordered++
		}
	}
	return hash, ordered
}

// TestEdgeChoice: a shuffle feeds an aggregate over a hash edge exactly
// when every aggregate is exact in any order by the kinds the plan
// declares — count, int or string min/max, int sum/avg — and a fused
// join's sides travel that way too; everything else keeps the sort.
func TestEdgeChoice(t *testing.T) {
	tb := &Table{Name: "t", Schema: row.NewSchema("k:int", "s", "i:int", "f:float"), Files: []string{"/t/0"}}
	ub := &Table{Name: "u", Schema: row.NewSchema("k:int", "j:int", "g:float"), Files: []string{"/u/0"}}
	agg := func(aggs ...AggDef) []*Node {
		return []*Node{StoreNode(AggNode(Scan(tb), []*Expr{Col(0)}, []string{"k"}, aggs), "/o")}
	}
	joinAgg := func(aggs ...AggDef) []*Node {
		j := JoinNode(Scan(tb), Scan(ub), []*Expr{Col(0)}, []*Expr{Col(0)}, false)
		return []*Node{StoreNode(AggNode(j, []*Expr{Col(0)}, []string{"k"}, aggs), "/o")}
	}
	self := Scan(tb)
	cases := []struct {
		name          string
		roots         []*Node
		hash, ordered int
	}{
		{"count(*)", agg(AggDef{Func: "count", Name: "n"}), 1, 0},
		{"count(float)", agg(AggDef{Func: "count", Arg: Col(3), Name: "n"}), 1, 0},
		{"sum(int)", agg(AggDef{Func: "sum", Arg: Col(2), Name: "x"}), 1, 0},
		{"avg(int*2)", agg(AggDef{Func: "avg", Arg: Arith("*", Col(2), LitInt(2)), Name: "x"}), 1, 0},
		{"min(string) max(int)", agg(AggDef{Func: "min", Arg: Col(1), Name: "x"}, AggDef{Func: "max", Arg: Col(2), Name: "y"}), 1, 0},
		{"sum(float)", agg(AggDef{Func: "sum", Arg: Col(3), Name: "x"}), 0, 1},
		{"avg(float)", agg(AggDef{Func: "avg", Arg: Col(3), Name: "x"}), 0, 1},
		{"sum(int/2)", agg(AggDef{Func: "sum", Arg: Arith("/", Col(2), LitInt(2)), Name: "x"}), 0, 1},
		{"sum(string)", agg(AggDef{Func: "sum", Arg: Col(1), Name: "x"}), 0, 1},
		{"min(float)", agg(AggDef{Func: "min", Arg: Col(3), Name: "x"}), 0, 1},
		{"max(null literal)", agg(AggDef{Func: "max", Arg: nullLit(), Name: "x"}), 0, 1},
		{"min(out of range)", agg(AggDef{Func: "min", Arg: Col(9), Name: "x"}), 0, 1},
		{"count and sum(float)", agg(AggDef{Func: "count", Name: "n"}, AggDef{Func: "sum", Arg: Col(3), Name: "x"}), 0, 1},
		{"fused join sum(int)", joinAgg(AggDef{Func: "sum", Arg: Col(5), Name: "x"}), 2, 0},
		{"fused join sum(float)", joinAgg(AggDef{Func: "sum", Arg: Col(6), Name: "x"}), 0, 2},
		{"plain join", []*Node{StoreNode(JoinNode(Scan(tb), Scan(ub), []*Expr{Col(0)}, []*Expr{Col(0)}, false), "/o")}, 0, 2},
		{"self join", []*Node{StoreNode(AggNode(JoinNode(self, self, []*Expr{Col(0)}, []*Expr{Col(0)}, false),
			[]*Expr{Col(0)}, []string{"k"}, []AggDef{{Func: "count", Name: "n"}}), "/o")}, 0, 1},
		{"sort", []*Node{StoreNode(SortNode(Scan(tb), []*Expr{Col(0)}, []bool{false}, 0), "/o")}, 0, 1},
		{"distinct", []*Node{StoreNode(DistinctNode(Scan(tb)), "/o")}, 0, 1},
		{"count then sort", []*Node{StoreNode(SortNode(AggNode(Scan(tb), []*Expr{Col(0)}, []string{"k"},
			[]AggDef{{Func: "count", Name: "n"}}), []*Expr{Col(1)}, []bool{true}, 5), "/o")}, 1, 1},
	}
	for _, c := range cases {
		if hash, ordered := edgeCounts(t, c.roots); hash != c.hash || ordered != c.ordered {
			t.Errorf("%s: %d hash and %d ordered edges, want %d and %d", c.name, hash, ordered, c.hash, c.ordered)
		}
	}
	// The MR chain sorts every shuffle, whatever its consumer folds.
	jobs, _, err := CompileMR(Config{}, "mr", joinAgg(AggDef{Func: "count", Name: "n"}))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		for _, e := range j.DAG.Edges {
			if e.Property.Output.Name != library.OrderedPartitionedOutputName {
				t.Errorf("MR job %s: edge %s->%s is %s", j.Name, e.From, e.To, e.Property.Output.Name)
			}
		}
	}
}

// Differential tables: nullable int and string keys, an int and a string
// argument on the left, an int argument on the right.
var (
	diffLeft  = row.NewSchema("k1:int", "k2", "a:int", "b")
	diffRight = row.NewSchema("k1:int", "k2", "c:int")
)

// randDiffRows draws rows of the differential tables: keys from small
// domains with nulls, arguments with nulls, strings with an empty one and
// one holding a zero byte.
func randDiffRows(rng *rand.Rand, n int, right bool) []row.Row {
	maybe := func(v row.Value) row.Value {
		if rng.Intn(7) == 0 {
			return row.Null()
		}
		return v
	}
	strs := []string{"", "x", "y", "z\x00", "xx"}
	rows := make([]row.Row, n)
	for i := range rows {
		r := row.Row{
			maybe(row.Int(int64(rng.Intn(9) - 2))),
			maybe(row.String(fmt.Sprintf("k%d", rng.Intn(3)))),
			maybe(row.Int(int64(rng.Intn(201) - 100))),
		}
		if !right {
			r = append(r, maybe(row.String(strs[rng.Intn(len(strs))])))
		}
		rows[i] = r
	}
	return rows
}

// randExactAggs draws 1–4 aggregates exact in any order over the columns
// of a row whose int columns are ints and string columns strings.
func randExactAggs(rng *rand.Rand, ints, strs []int) []AggDef {
	var aggs []AggDef
	for i := 0; i < 1+rng.Intn(4); i++ {
		name := fmt.Sprintf("a%d", i)
		switch rng.Intn(6) {
		case 0:
			aggs = append(aggs, AggDef{Func: "count", Name: name})
		case 1:
			all := append(append([]int{}, ints...), strs...)
			aggs = append(aggs, AggDef{Func: "count", Arg: Col(all[rng.Intn(len(all))]), Name: name})
		case 2, 3:
			f := []string{"sum", "avg", "min", "max"}[rng.Intn(4)]
			arg := Col(ints[rng.Intn(len(ints))])
			switch rng.Intn(4) {
			case 0:
				arg = Arith("*", arg, LitInt(int64(rng.Intn(5)-2)))
			case 1: // an int 0/1, a bool column in the batch
				arg = Cmp("<", arg, LitInt(0))
			}
			aggs = append(aggs, AggDef{Func: f, Arg: arg, Name: name})
		default:
			f := []string{"min", "max"}[rng.Intn(2)]
			aggs = append(aggs, AggDef{Func: f, Arg: Col(strs[rng.Intn(len(strs))]), Name: name})
		}
	}
	return aggs
}

// refAgg is the plain-Go aggregate: rows grouped by the key bytes of the
// group expressions, aggregates over non-null arguments.
func refAgg(rows []row.Row, groupBy []*Expr, aggs []AggDef) []row.Row {
	type group struct {
		key    row.Row
		states []aggState
	}
	groups := map[string]*group{}
	var order []string
	for _, r := range rows {
		key := EvalAll(groupBy, r)
		k := string(row.EncodeKey(nil, key...))
		g := groups[k]
		if g == nil {
			g = &group{key: key, states: make([]aggState, len(aggs))}
			groups[k] = g
			order = append(order, k)
		}
		for i, a := range aggs {
			v := row.Int(1)
			if a.Arg != nil {
				v = a.Arg.Eval(r)
			}
			g.states[i].observe(v)
		}
	}
	spec := &GroupOp{Aggs: make([]AggFuncSpec, len(aggs))}
	for i, a := range aggs {
		spec.Aggs[i].Func = a.Func
	}
	var out []row.Row
	for _, k := range order {
		r, err := finalizeAgg(spec, groups[k].key, groups[k].states)
		if err != nil {
			panic(err)
		}
		out = append(out, r)
	}
	return out
}

// TestHashEdgeDifferential runs generated plans whose aggregates are exact
// in any order — group-bys of 1–3 keys (a comparison among them, which
// travels as a bool column) and shuffle joins fused with their aggregate;
// count(*), count(col), int sum/avg/min/max and string min/max over
// NULL-bearing columns — on Tez, where they take hash edges, and as
// an MR chain, which sorts, at 1, 3 and 8 partitions, and holds both to a
// plain-Go reference, row bytes for row bytes.
func TestHashEdgeDifferential(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	rng := rand.New(rand.NewSource(41))
	leftRows, rightRows := randDiffRows(rng, 300, false), randDiffRows(rng, 120, true)
	left := h.table("diff_l", diffLeft, 5, leftRows)
	right := h.table("diff_r", diffRight, 3, rightRows)
	trial := 0
	for _, parts := range []int{1, 3, 8} {
		cfg := Config{DefaultPartitions: parts}
		sess := am.NewSession(h.plat, am.Config{Name: fmt.Sprintf("diff-%d", parts)})
		for i := 0; i < 4; i++ {
			trial++
			var mk func(out string) []*Node
			var want []row.Row
			if i%2 == 0 {
				var groupBy []*Expr
				for _, c := range rng.Perm(4)[:1+rng.Intn(3)] {
					groupBy = append(groupBy, Col(c))
				}
				if rng.Intn(2) == 0 {
					groupBy[0] = Cmp(">", Col(2), LitInt(10))
				}
				aggs := randExactAggs(rng, []int{0, 2}, []int{1, 3})
				mk = func(out string) []*Node {
					return []*Node{StoreNode(AggNode(Scan(left), groupBy, make([]string, len(groupBy)), aggs), out)}
				}
				want = refAgg(leftRows, groupBy, aggs)
			} else {
				// Join output: k1 0, k2 1, a 2, b 3, rk1 4, rk2 5, c 6.
				keysL, keysR, groupBy := []int{0}, []int{0}, []int{[]int{0, 4}[rng.Intn(2)]}
				if rng.Intn(2) == 0 {
					keysL, keysR, groupBy = []int{0, 1}, []int{0, 1}, []int{1, 4}
				}
				aggs := randExactAggs(rng, []int{0, 2, 6}, []int{1, 3, 5})
				mk = func(out string) []*Node {
					var kl, kr, g []*Expr
					for i := range keysL {
						kl, kr = append(kl, Col(keysL[i])), append(kr, Col(keysR[i]))
					}
					for _, c := range groupBy {
						g = append(g, Col(c))
					}
					j := JoinNode(Scan(left), Scan(right), kl, kr, false)
					return []*Node{StoreNode(AggNode(j, g, make([]string, len(g)), aggs), out)}
				}
				want = refJoinAgg(leftRows, rightRows, keysL, keysR, groupBy, aggs)
			}
			name := fmt.Sprintf("diff%02d", trial)
			if hash, _ := edgeCounts(t, mk("/x")); hash == 0 {
				t.Fatalf("%s: plan takes no hash edge", name)
			}
			tezOut, mrOut := "/out/"+name+"-tez", "/out/"+name+"-mr"
			if _, err := RunTez(sess, cfg, name, mk(tezOut)); err != nil {
				t.Fatalf("%s on tez: %v", name, err)
			}
			if _, err := RunMR(h.plat, am.Config{Name: name + "-mr"}, cfg, name+"-mr", mk(mrOut)); err != nil {
				t.Fatalf("%s on mr: %v", name, err)
			}
			h.sameRows(name+" tez vs reference", h.stored(tezOut), want)
			h.sameRows(name+" mr vs reference", h.stored(mrOut), want)
		}
		sess.Close()
	}
}

// recordReader serves captured records as a runtime.KVReader.
type recordReader struct {
	recs []capturedKV
	i    int
}

func (r *recordReader) Next() bool    { r.i++; return r.i <= len(r.recs) }
func (r *recordReader) Key() []byte   { return r.recs[r.i-1].key }
func (r *recordReader) Value() []byte { return r.recs[r.i-1].val }
func (r *recordReader) Err() error    { return nil }

// framesOf cuts rows, in order, into frames of 1–8 rows keyed by key.
func framesOf(rng *rand.Rand, rows []row.Row, key []byte) []capturedKV {
	var out []capturedKV
	for len(rows) > 0 {
		n := min(len(rows), 1+rng.Intn(8))
		b := col.NewBatch()
		for _, r := range rows[:n] {
			if !b.AppendRow(r) {
				panic("ragged rows")
			}
		}
		out = append(out, capturedKV{key: key, val: col.EncodeBatch(nil, b)})
		rows = rows[n:]
	}
	return out
}

// orderedGroups is what the ordered edge delivers: records sorted by
// (key, value), grouped by key.
func orderedGroups(recs []capturedKV) [][][]byte {
	slices.SortFunc(recs, func(a, b capturedKV) int {
		if c := bytes.Compare(a.key, b.key); c != 0 {
			return c
		}
		return bytes.Compare(a.val, b.val)
	})
	var groups [][][]byte
	for i, r := range recs {
		if i == 0 || !bytes.Equal(r.key, recs[i-1].key) {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], r.val)
	}
	return groups
}

// randTypedRow draws a row whose column c is an int column when kinds[c]
// and a string column otherwise, with nulls.
func randTypedRow(rng *rand.Rand, kinds []bool) row.Row {
	r := make(row.Row, len(kinds))
	for c, isInt := range kinds {
		switch {
		case rng.Intn(6) == 0:
			r[c] = row.Null()
		case isInt:
			r[c] = row.Int(int64(rng.Intn(13) - 6))
		default:
			r[c] = row.String([]string{"", "a", "b", "a\x00", "bb"}[rng.Intn(5)])
		}
	}
	return r
}

// TestHashFoldMatchesOrderedFold holds the hash edge's consumer to the
// ordered edge's at batch sizes 1–8: an agg stage's hashFold against
// groupFold over the same rows sorted and grouped, and a fused join's
// against joinGroups, with the row oracle beside both; frames of 1–8
// rows, in arrival order, over int and string columns with nulls. The
// outputs must be the same records in the same order.
func TestHashFoldMatchesOrderedFold(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	funcs := []string{"sum", "count", "min", "max", "avg"}
	randAggs := func(g *GroupOp, kinds []bool, from int) {
		for c := from; c < len(kinds); c++ {
			f := funcs[rng.Intn(len(funcs))]
			if !kinds[c] && f != "count" {
				f = []string{"min", "max"}[rng.Intn(2)]
			}
			g.Aggs = append(g.Aggs, AggFuncSpec{Func: f, Col: c})
		}
	}
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(8)
		p := &stageProcessor{}
		hashEm, hashW := sinkEmitter(size)
		ordEm, ordW := sinkEmitter(size)
		oracleW := &captureWriter{}
		oracle := &emitter{spec: EmitSpec{Kind: EmitSink, Tag: -1}, writer: oracleW}
		fold := func(g *GroupOp) *hashFold {
			f, err := getHashFold(g, size)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		var f *hashFold
		if trial%2 == 0 {
			// An agg stage's rows: [group..., args...].
			gw := 1 + rng.Intn(3)
			kinds := make([]bool, gw+1+rng.Intn(3))
			for c := range kinds {
				kinds[c] = rng.Intn(2) == 0
			}
			g := &GroupOp{Kind: "agg", GroupWidth: gw}
			randAggs(g, kinds, gw)
			f = fold(g)
			var rows []row.Row
			var recs []capturedKV
			keys := make([]*Expr, gw)
			for c := range keys {
				keys[c] = Col(c)
			}
			for i := rng.Intn(60); i > 0; i-- {
				r := randTypedRow(rng, kinds)
				rows = append(rows, r)
				recs = append(recs, capturedKV{key: row.EncodeKey(nil, r[:gw]...), val: row.Encode(nil, r)})
			}
			if err := f.addInputs([]hashInput{{kv: &recordReader{recs: framesOf(rng, rows, nil)}, keys: keys}}); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			ord := newGroupFold(g, size, []*vecEmitter{ordEm})
			for _, values := range orderedGroups(recs) {
				if err := ord.addGroup(values); err != nil {
					t.Fatal(err)
				}
				if err := p.aggGroup(g, values, oracle.emit); err != nil {
					t.Fatal(err)
				}
			}
			if err := ord.close(); err != nil {
				t.Fatal(err)
			}
		} else {
			// A fused join: a 1-column key on each side, the group key
			// named from either side, aggregates over both sides' columns.
			widths := []int{1 + rng.Intn(3), 1 + rng.Intn(3)}
			keyInt := rng.Intn(2) == 0
			var kinds []bool
			for _, w := range widths {
				kinds = append(kinds, keyInt)
				for c := 1; c < w; c++ {
					kinds = append(kinds, rng.Intn(2) == 0)
				}
			}
			groupCol := []int{0, widths[0]}[rng.Intn(2)]
			g := &GroupOp{Kind: "join", Sides: 2, GroupWidth: 1, AggInput: []*Expr{Col(groupCol)}}
			argKinds := []bool{kinds[groupCol]}
			for c := range kinds {
				if rng.Intn(2) == 0 {
					g.AggInput = append(g.AggInput, Col(c))
					argKinds = append(argKinds, kinds[c])
				}
			}
			g.AggInput = append(g.AggInput, LitInt(1)) // count(*)
			argKinds = append(argKinds, true)
			randAggs(g, argKinds, 1)
			f = fold(g)
			var ins []hashInput
			var recs []capturedKV
			var sideRows [2][]row.Row
			for s, w := range widths {
				off := []int{0, widths[0]}[s]
				for i := rng.Intn(40); i > 0; i-- {
					r := randTypedRow(rng, kinds[off:off+w])
					if keyInt && r[0].Kind == row.KindInt {
						r[0] = row.Int(r[0].Int % 4)
					}
					sideRows[s] = append(sideRows[s], r)
					recs = append(recs, capturedKV{key: row.EncodeKey(nil, r[0]), val: row.Encode([]byte{byte(s)}, r)})
				}
				// Each side over two inputs.
				cut := rng.Intn(len(sideRows[s]) + 1)
				for _, part := range [][]row.Row{sideRows[s][:cut], sideRows[s][cut:]} {
					ins = append(ins, hashInput{kv: &recordReader{recs: framesOf(rng, part, []byte{byte(s)})}, keys: []*Expr{Col(0)}})
				}
			}
			rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
			if err := f.join(ins); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			join := joinGroups{size: size}
			for _, values := range orderedGroups(recs) {
				if err := join.run(g, values, []*vecEmitter{ordEm}); err != nil {
					t.Fatal(err)
				}
			}
			if err := join.close(); err != nil {
				t.Fatal(err)
			}
			aggs := make([]AggDef, len(g.Aggs))
			for i, a := range g.Aggs {
				aggs[i] = AggDef{Func: a.Func, Arg: g.AggInput[a.Col]}
			}
			ref := refJoinAgg(sideRows[0], sideRows[1], []int{0}, []int{0}, []int{groupCol}, aggs)
			sort.Slice(ref, func(i, j int) bool {
				return string(row.EncodeKey(nil, ref[i][0])) < string(row.EncodeKey(nil, ref[j][0]))
			})
			for _, r := range ref {
				if err := oracle.emit(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := f.emit([]*vecEmitter{hashEm}); err != nil {
			t.Fatal(err)
		}
		hashFolds.Put(f)
		for _, em := range []*vecEmitter{hashEm, ordEm} {
			if err := em.close(); err != nil {
				t.Fatal(err)
			}
		}
		what := fmt.Sprintf("trial %d (batch size %d)", trial, size)
		sameRecords(t, what+" hash vs ordered", ordW.kvs, hashW.kvs)
		sameRecords(t, what+" hash vs oracle", oracleW.kvs, hashW.kvs)
	}
}

// framesWriter captures what a shuffle emit bound to a hash edge writes,
// partitioned as library.PartitionedWriter partitions.
type framesWriter struct {
	n      int
	frames [][]capturedKV // per partition
}

func (w *framesWriter) Write(k, v []byte) error { return fmt.Errorf("unframed write") }
func (w *framesWriter) Partition(key []byte) int {
	return library.HashPartitioner{}.Partition(key, w.n)
}
func (w *framesWriter) WritePartition(p int, k, v []byte) error {
	w.frames[p] = append(w.frames[p], capturedKV{key: append([]byte{}, k...), val: append([]byte{}, v...)})
	return nil
}

// TestWriteFramesPartitionLikeOrdered: a shuffle emit bound to a hash
// edge writes, at batch sizes 1–8 and 1, 3 and 8 partitions, the rows the
// same emit writes to an ordered edge, each in the partition its key
// hashes to, in the same order, tagged by the frame key; ROWS_EMITTED
// counts rows on both.
func TestWriteFramesPartitionLikeOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 60; trial++ {
		size, parts := 1+rng.Intn(8), []int{1, 3, 8}[trial%3]
		w := 2 + rng.Intn(3)
		spec := EmitSpec{Kind: EmitShuffle, Output: "o", Tag: rng.Intn(3) - 1,
			Keys: []*Expr{Col(rng.Intn(w))},
			Pipe: []PipeOp{{Kind: "filter", Filter: Cmp("!=", Col(0), LitInt(0))}}}
		ordW, fw := &captureWriter{}, &framesWriter{n: parts, frames: make([][]capturedKV, parts)}
		ord, hashed := newVecEmitter(spec, ordW, nil, size), newVecEmitter(spec, fw, nil, size)
		for i := rng.Intn(80); i > 0; i-- {
			enc := row.Encode(nil, randVecRow(rng, w))
			for _, em := range []*vecEmitter{ord, hashed} {
				if err := em.add(enc); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, em := range []*vecEmitter{ord, hashed} {
			if err := em.close(); err != nil {
				t.Fatal(err)
			}
		}
		if ord.count != hashed.count {
			t.Fatalf("trial %d: ROWS_EMITTED %d ordered, %d hashed", trial, ord.count, hashed.count)
		}
		want := make([][]string, parts)
		for _, kv := range ordW.kvs {
			p := library.HashPartitioner{}.Partition(kv.key, parts)
			want[p] = append(want[p], string(kv.val))
		}
		for p := range want {
			var got []string
			for _, fr := range fw.frames[p] {
				if spec.Tag < 0 && len(fr.key) != 0 || spec.Tag >= 0 && !bytes.Equal(fr.key, []byte{byte(spec.Tag)}) {
					t.Fatalf("trial %d: frame keyed %x for tag %d", trial, fr.key, spec.Tag)
				}
				b, err := col.DecodeBatch(fr.val)
				if err != nil {
					t.Fatal(err)
				}
				if b.Len() == 0 || b.Len() > size {
					t.Fatalf("trial %d: frame of %d rows at batch size %d", trial, b.Len(), size)
				}
				for i := 0; i < b.Len(); i++ {
					got = append(got, string(append(append([]byte{}, fr.key...), col.AppendRowEncoded(nil, b, i)...)))
				}
			}
			if strings.Join(got, "|") != strings.Join(want[p], "|") {
				t.Fatalf("trial %d partition %d: hashed rows differ from the ordered edge's", trial, p)
			}
		}
	}
}

// TestHashEdgeCorruptInput: a frame or tag that does not decode fails the
// read with an error, never a panic — random byte flips and cuts of valid
// frames, foreign tags, and an agg row narrower than its group key.
func TestHashEdgeCorruptInput(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	aggOp := &GroupOp{Kind: "agg", GroupWidth: 2, Aggs: []AggFuncSpec{{Func: "sum", Col: 2}, {Func: "min", Col: 3}}}
	joinOp := &GroupOp{Kind: "join", Sides: 2, GroupWidth: 1, AggInput: []*Expr{Col(0), Col(3)},
		Aggs: []AggFuncSpec{{Func: "max", Col: 1}}}
	run := func(g *GroupOp, recs []capturedKV) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
				t.Fatalf("%s over %x: %v", g.Kind, recs, r)
			}
		}()
		f, err := getHashFold(g, 4)
		if err != nil {
			return err
		}
		defer hashFolds.Put(f)
		keys := make([]*Expr, g.GroupWidth)
		for c := range keys {
			keys[c] = Col(c)
		}
		in := []hashInput{{kv: &recordReader{recs: recs}, keys: keys}}
		if g.Kind == "join" {
			err = f.join(in)
		} else {
			err = f.addInputs(in)
		}
		if err != nil {
			return err
		}
		em, _ := sinkEmitter(4)
		return f.emit([]*vecEmitter{em})
	}
	var rows []row.Row
	for i := 0; i < 20; i++ {
		rows = append(rows, randTypedRow(rng, []bool{true, false, true, false}))
	}
	aggFrames := framesOf(rng, rows, nil)
	joinFrames := append(framesOf(rng, rows[:10], []byte{0}), framesOf(rng, rows[10:], []byte{1})...)
	for _, c := range []struct {
		g    *GroupOp
		recs []capturedKV
	}{
		{aggOp, []capturedKV{{key: []byte{0}, val: aggFrames[0].val}}},                    // keyed agg frame
		{joinOp, []capturedKV{{key: nil, val: joinFrames[0].val}}},                        // untagged
		{joinOp, []capturedKV{{key: []byte{2}, val: joinFrames[0].val}}},                  // tag out of range
		{joinOp, []capturedKV{{key: []byte{0, 1}, val: joinFrames[0].val}}},               // two-byte tag
		{&GroupOp{Kind: "agg", GroupWidth: 5}, aggFrames},                                 // rows under the key
		{aggOp, []capturedKV{{val: []byte{0xB5}}}},                                        // cut header
		{&GroupOp{Kind: "distinct"}, aggFrames},                                           // not a hash fold
		{&GroupOp{Kind: "agg", Aggs: []AggFuncSpec{{Func: "median", Col: 0}}}, aggFrames}, // unknown aggregate
	} {
		if c.g.Kind == "distinct" {
			p := &stageProcessor{spec: &StageSpec{Group: c.g}}
			if err := p.runHashed(nil, nil); err == nil {
				t.Errorf("distinct over a hash edge: no error")
			}
			continue
		}
		if err := run(c.g, c.recs); err == nil {
			t.Errorf("%s over %x: no error", c.g.Kind, c.recs)
		}
	}
	for i := 0; i < 2000; i++ {
		g, src := aggOp, aggFrames
		if i%2 == 1 {
			g, src = joinOp, joinFrames
		}
		recs := make([]capturedKV, len(src))
		for j, r := range src {
			recs[j] = capturedKV{key: r.key, val: append([]byte{}, r.val...)}
		}
		bad := &recs[rng.Intn(len(recs))]
		switch rng.Intn(3) {
		case 0:
			bad.val = bad.val[:rng.Intn(len(bad.val))]
		default:
			for k := 1 + rng.Intn(3); k > 0; k-- {
				bad.val[rng.Intn(len(bad.val))] ^= byte(1 + rng.Intn(255))
			}
		}
		_ = run(g, recs) // an error or an answer; a panic fails in run
	}
}

// TestHashEdgeCounters: on the hash edge ROWS_EMITTED counts rows, as on
// the ordered edge — every scanned row once plus every group — and each
// task of a fused join counts one HASHTABLE_BUILDS.
func TestHashEdgeCounters(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	rng := rand.New(rand.NewSource(59))
	leftRows, rightRows := randDiffRows(rng, 200, false), randDiffRows(rng, 80, true)
	left := h.table("cnt_l", diffLeft, 4, leftRows)
	right := h.table("cnt_r", diffRight, 2, rightRows)
	sess := am.NewSession(h.plat, am.Config{Name: "counters", DisableAutoParallelism: true})
	defer sess.Close()
	cfg := Config{DefaultPartitions: 3}
	j := JoinNode(Scan(left), Scan(right), []*Expr{Col(0)}, []*Expr{Col(0)}, false)
	aggs := []AggDef{{Func: "sum", Arg: Col(6), Name: "s"}}
	roots := []*Node{StoreNode(AggNode(j, []*Expr{Col(0)}, []string{"k"}, aggs), "/out/cnt")}
	if hash, _ := edgeCounts(t, roots); hash != 2 {
		t.Fatalf("join takes %d hash edges, want 2", hash)
	}
	res, err := RunTez(sess, cfg, "cnt", roots)
	if err != nil {
		t.Fatal(err)
	}
	groups := len(refJoinAgg(leftRows, rightRows, []int{0}, []int{0}, []int{0}, aggs))
	if got, want := res.Counters.Get("ROWS_EMITTED"), int64(len(leftRows)+len(rightRows)+groups); got != want {
		t.Errorf("ROWS_EMITTED = %d, want %d", got, want)
	}
	if got := res.Counters.Get("HASHTABLE_BUILDS"); got != int64(cfg.DefaultPartitions) {
		t.Errorf("HASHTABLE_BUILDS = %d, want one per join task, %d", got, cfg.DefaultPartitions)
	}
}

// TestKeyIndexNumbersKeys: the key index numbers keys densely in first-
// seen order across growth and a reset, and finds exactly the keys added.
func TestKeyIndexNumbersKeys(t *testing.T) {
	x := keyIndex{seed: maphash.MakeSeed()}
	for round := 0; round < 2; round++ {
		x.reset()
		want := map[string]int32{}
		rng := rand.New(rand.NewSource(int64(round)))
		for i := 0; i < 5000; i++ {
			k := []byte(fmt.Sprint(rng.Intn(3000)))
			id, ok := want[string(k)]
			if !ok {
				id = int32(len(want))
				want[string(k)] = id
			}
			if got := x.add(k); got != id {
				t.Fatalf("round %d: add(%s) = %d, want %d", round, k, got, id)
			}
		}
		for k, id := range want {
			if got := x.find([]byte(k)); got != id || !bytes.Equal(x.key(id), []byte(k)) {
				t.Fatalf("find(%s) = %d, want %d", k, got, id)
			}
		}
		if got := x.find([]byte("absent")); got != -1 {
			t.Fatalf("find(absent) = %d", got)
		}
	}
}

// TestFloatExtremesTieOnOrder is why foldsInAnyOrder keeps float min and
// max on the ordered edge: -0 and +0 tie under row.Compare, the first
// seen wins, and the two encode differently, so the bytes written follow
// the rows' arrival order.
func TestFloatExtremesTieOnOrder(t *testing.T) {
	g := &GroupOp{Kind: "agg", GroupWidth: 1, Aggs: []AggFuncSpec{{Func: "min", Col: 1}}}
	var out [2][]capturedKV
	for i, zeros := range [][]float64{{0, math.Copysign(0, -1)}, {math.Copysign(0, -1), 0}} {
		f, err := getHashFold(g, DefaultBatchSize)
		if err != nil {
			t.Fatal(err)
		}
		var rows []row.Row
		for _, z := range zeros {
			rows = append(rows, row.Row{row.Int(1), row.Float(z)})
		}
		recs := framesOf(rand.New(rand.NewSource(1)), rows, nil)
		if err := f.addInputs([]hashInput{{kv: &recordReader{recs: recs}, keys: []*Expr{Col(0)}}}); err != nil {
			t.Fatal(err)
		}
		em, w := sinkEmitter(DefaultBatchSize)
		if err := f.emit([]*vecEmitter{em}); err != nil {
			t.Fatal(err)
		}
		hashFolds.Put(f)
		if err := em.close(); err != nil {
			t.Fatal(err)
		}
		out[i] = w.kvs
	}
	if bytes.Equal(out[0][0].val, out[1][0].val) {
		t.Fatal("min over +0 and -0 wrote the same bytes in both orders")
	}
	if hash, _ := edgeCounts(t, []*Node{StoreNode(AggNode(Scan(&Table{Name: "t",
		Schema: row.NewSchema("k:int", "x:float"), Files: []string{"/t/0"}}),
		[]*Expr{Col(0)}, []string{"k"}, []AggDef{{Func: "min", Arg: Col(1), Name: "m"}}), "/o")}); hash != 0 {
		t.Fatal("a float min takes a hash edge")
	}
}

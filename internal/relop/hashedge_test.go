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
	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/plugin"
	"tez/internal/row"
	"tez/internal/runtime"
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

// TestEdgeChoice: a shuffle feeds an aggregate over a hash edge, and its
// producers pre-aggregate, unless a group key has no declared kind (where
// distinct values share key bytes and the first row would decide the key
// written); a fused join's sides travel that way too; everything else
// keeps the sort.
func TestEdgeChoice(t *testing.T) {
	tb := &Table{Name: "t", Schema: row.NewSchema("k:int", "s", "i:int", "f:float"), Files: []string{"/t/0"}}
	ub := &Table{Name: "u", Schema: row.NewSchema("k:int", "j:int", "g:float"), Files: []string{"/u/0"}}
	aggBy := func(groupBy *Expr, aggs ...AggDef) []*Node {
		return []*Node{StoreNode(AggNode(Scan(tb), []*Expr{groupBy}, []string{"k"}, aggs), "/o")}
	}
	agg := func(aggs ...AggDef) []*Node { return aggBy(Col(0), aggs...) }
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
		{"sum(float)", agg(AggDef{Func: "sum", Arg: Col(3), Name: "x"}), 1, 0},
		{"avg(float)", agg(AggDef{Func: "avg", Arg: Col(3), Name: "x"}), 1, 0},
		{"sum(int/2)", agg(AggDef{Func: "sum", Arg: Arith("/", Col(2), LitInt(2)), Name: "x"}), 1, 0},
		{"sum(string)", agg(AggDef{Func: "sum", Arg: Col(1), Name: "x"}), 1, 0},
		{"min(float)", agg(AggDef{Func: "min", Arg: Col(3), Name: "x"}), 1, 0},
		{"max(null literal)", agg(AggDef{Func: "max", Arg: nullLit(), Name: "x"}), 1, 0},
		{"min(out of range)", agg(AggDef{Func: "min", Arg: Col(9), Name: "x"}), 1, 0},
		{"by float", aggBy(Col(3), AggDef{Func: "sum", Arg: Col(3), Name: "x"}), 1, 0},
		{"by comparison", aggBy(Cmp("<", Col(3), LitInt(0)), AggDef{Func: "count", Name: "n"}), 1, 0},
		{"by null literal", aggBy(nullLit(), AggDef{Func: "count", Name: "n"}), 0, 1},
		{"by out of range", aggBy(Col(9), AggDef{Func: "sum", Arg: Col(3), Name: "x"}), 0, 1},
		{"fused join sum(int)", joinAgg(AggDef{Func: "sum", Arg: Col(5), Name: "x"}), 2, 0},
		{"fused join sum(float)", joinAgg(AggDef{Func: "sum", Arg: Col(6), Name: "x"}), 2, 0},
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
		// A plan's agg stage merges partial states exactly when its
		// producers pre-aggregate, which is when its edge is a hash
		// edge on Tez; the MR chain runs the same stages.
		jobs, _, err := CompileMR(Config{}, "mr", c.roots)
		if err != nil {
			t.Fatal(err)
		}
		var d []*dag.DAG
		if tez, err := EmitDAGOnly(Config{}, "tez", c.roots); err == nil {
			d = append(d, tez)
		} else {
			t.Fatal(err)
		}
		for _, j := range jobs {
			d = append(d, j.DAG)
		}
		for _, g := range d {
			for _, v := range g.Vertices {
				var spec StageSpec
				if err := plugin.Decode(v.Processor.Payload, &spec); err != nil {
					t.Fatal(err)
				}
				if spec.Group != nil && spec.Group.Kind == "agg" && spec.Group.Partial != (c.hash > 0) {
					t.Errorf("%s: %s %s merges partial states: %v", c.name, g.Name, v.Name, spec.Group.Partial)
				}
				for _, es := range spec.Emits {
					if strings.HasSuffix(es.Output, "_agg") && (es.Aggs != nil) != (c.hash > 0) {
						t.Errorf("%s: %s %s emit pre-aggregates: %v", c.name, g.Name, v.Name, es.Aggs != nil)
					}
				}
			}
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

// Differential tables: nullable int and string keys; int, string, float
// (±0, NaN, ±Inf among them) and kind-mixed arguments on the left; int and
// float arguments on the right.
var (
	diffLeft  = row.NewSchema("k1:int", "k2", "a:int", "b", "f:float", "m")
	diffRight = row.NewSchema("k1:int", "k2", "c:int", "g:float")
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
			r = append(r, maybe(row.String(strs[rng.Intn(len(strs))])), randPartialArg(rng, 1), randPartialArg(rng, 3))
		} else {
			r = append(r, randPartialArg(rng, 1))
		}
		rows[i] = r
	}
	return rows
}

// randDiffAggs draws 1–4 aggregates over the columns of a row whose int
// columns are ints, string columns strings, float columns floats and
// mixed columns anything: count(*) and count(col); sum, avg, min and max
// of an int, of a float, of an int times a float literal, of a mixed
// column and of an argument of no declared kind (a null literal, a column
// past the row); min and max of a string.
func randDiffAggs(rng *rand.Rand, ints, strs, floats, mixed []int) []AggDef {
	pick := func(cols []int) *Expr { return Col(cols[rng.Intn(len(cols))]) }
	var aggs []AggDef
	for i := 0; i < 1+rng.Intn(4); i++ {
		name := fmt.Sprintf("a%d", i)
		f := []string{"sum", "avg", "min", "max"}[rng.Intn(4)]
		switch rng.Intn(8) {
		case 0:
			aggs = append(aggs, AggDef{Func: "count", Name: name})
		case 1:
			all := append(append(append([]int{}, ints...), strs...), floats...)
			aggs = append(aggs, AggDef{Func: "count", Arg: pick(all), Name: name})
		case 2, 3:
			arg := pick(ints)
			switch rng.Intn(4) {
			case 0:
				arg = Arith("*", arg, LitInt(int64(rng.Intn(5)-2)))
			case 1: // an int 0/1, a bool column in the batch
				arg = Cmp("<", arg, LitInt(0))
			}
			aggs = append(aggs, AggDef{Func: f, Arg: arg, Name: name})
		case 4:
			arg := pick(floats)
			if rng.Intn(2) == 0 {
				arg = Arith("*", pick(ints), LitFloat(0.1))
			}
			aggs = append(aggs, AggDef{Func: f, Arg: arg, Name: name})
		case 5:
			arg := []*Expr{pick(mixed), nullLit(), Col(99)}[rng.Intn(3)]
			aggs = append(aggs, AggDef{Func: f, Arg: arg, Name: name})
		default:
			f := []string{"min", "max"}[rng.Intn(2)]
			aggs = append(aggs, AggDef{Func: f, Arg: pick(strs), Name: name})
		}
	}
	return aggs
}

// refAgg is the plain-Go aggregate: rows grouped by the key bytes of the
// group expressions, aggregates over non-null arguments by the math/big
// reference.
func refAgg(rows []row.Row, groupBy []*Expr, aggs []AggDef) []row.Row {
	var ref refGroups
	for _, r := range rows {
		ref.add(EvalAll(groupBy, r), r, aggs)
	}
	if len(groupBy) == 0 && len(ref.keys) == 0 {
		// A global aggregate over no rows still has its one group.
		ref.keys, ref.args = []row.Row{{}}, [][][]row.Value{make([][]row.Value, len(aggs))}
	}
	return ref.rows(aggs)
}

// TestHashEdgeDifferential runs generated plans — group-bys of 1–3 keys (a
// comparison among them, which travels as a bool column) and shuffle
// joins fused with their aggregate; count(*), count(col), sum, avg, min
// and max of int, float, kind-mixed and untyped arguments over columns
// holding NULLs, ±0, NaN and ±Inf, string min/max; and aggregates,
// group-less ones among them, behind a filter that may drop every row —
// on Tez, where they take hash edges, and as an MR chain, which sorts, at
// 1, 3 and 8 partitions, with the producers' partial tables, and the MR
// reducers', writing out after every group, every 3 groups or at the
// default cap, and holds both to the math/big reference, row bytes for
// row bytes. Its last cases feed such an aggregate, plain or fused, to a
// sort on one of its columns — with a LIMIT, with a LIMIT on count(*)
// that cuts through ties, and as a range sort with no limit — so its fold
// writes to a shuffle alone and leaves its groups unsorted
// (observesOrder); the stored rows must be the reference's in the sort's
// (key, row bytes) order. Its broadcast cases feed one broadcast join —
// a build side with duplicate, NULL and kind-mixed keys (Int 1 and Float
// 1.0) and rows of two widths — to a sink, to an aggregate, and through a
// filter to a sort with a LIMIT; on MR the same plan joins by a shuffle.
func TestHashEdgeDifferential(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	defer func(c int) { partialGroupCap = c }(partialGroupCap)
	rng := rand.New(rand.NewSource(41))
	leftRows, rightRows := randDiffRows(rng, 300, false), randDiffRows(rng, 120, true)
	left := h.table("diff_l", diffLeft, 5, leftRows)
	right := h.table("diff_r", diffRight, 3, rightRows)
	// The filtered cases draw from a generator of their own, so the ones
	// before them are drawn as they always were.
	frng := rand.New(rand.NewSource(42))
	srng := rand.New(rand.NewSource(44)) // and so do the sorted ones
	brng := rand.New(rand.NewSource(46)) // and the broadcast ones
	trial, sorts, bcasts := 0, 0, 0
	for pi, parts := range []int{1, 3, 8} {
		cfg := Config{DefaultPartitions: parts}
		sess := am.NewSession(h.plat, am.Config{Name: fmt.Sprintf("diff-%d", parts)})
		for i := 0; i < 9; i++ {
			trial++
			partialGroupCap = []int{1 << 12, 1, 3}[trial%3]
			var mk func(out string) []*Node
			var want []row.Row
			switch {
			case i >= 6:
				// a > cut: a is in [-100, 100], so a cut of 100 drops
				// every row; two cases in three group by nothing.
				cut := []int64{100, int64(frng.Intn(201) - 100), -101}[i-6]
				filter := Cmp(">", Col(2), LitInt(cut))
				var groupBy []*Expr
				if frng.Intn(3) == 0 {
					groupBy = []*Expr{Col(frng.Intn(4))}
				}
				aggs := randDiffAggs(frng, []int{0, 2}, []int{1, 3}, []int{4}, []int{5})
				mk = func(out string) []*Node {
					return []*Node{StoreNode(AggNode(FilterNode(Scan(left), filter), groupBy, make([]string, len(groupBy)), aggs), out)}
				}
				var kept []row.Row
				for _, r := range leftRows {
					if Truthy(filter.Eval(r)) {
						kept = append(kept, r)
					}
				}
				want = refAgg(kept, groupBy, aggs)
			case i%2 == 0:
				var groupBy []*Expr
				for _, c := range rng.Perm(4)[:1+rng.Intn(3)] {
					groupBy = append(groupBy, Col(c))
				}
				if rng.Intn(2) == 0 {
					groupBy[0] = Cmp(">", Col(2), LitInt(10))
				}
				aggs := randDiffAggs(rng, []int{0, 2}, []int{1, 3}, []int{4}, []int{5})
				mk = func(out string) []*Node {
					return []*Node{StoreNode(AggNode(Scan(left), groupBy, make([]string, len(groupBy)), aggs), out)}
				}
				want = refAgg(leftRows, groupBy, aggs)
			default:
				// Join output: k1 0, k2 1, a 2, b 3, f 4, m 5, rk1 6, rk2 7,
				// c 8, g 9.
				keysL, keysR, groupBy := []int{0}, []int{0}, []int{[]int{0, 6}[rng.Intn(2)]}
				if rng.Intn(2) == 0 {
					keysL, keysR, groupBy = []int{0, 1}, []int{0, 1}, []int{1, 6}
				}
				aggs := randDiffAggs(rng, []int{0, 2, 8}, []int{1, 3, 7}, []int{4, 9}, []int{5})
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
		for shape := 0; shape < 3; shape++ {
			sorts++
			partialGroupCap = []int{1 << 12, 1, 3}[(sorts+pi)%3]
			// Shapes: 0 a LIMIT, 1 a LIMIT through ties of count(*), 2 a
			// range sort. Join output: k1 0, k2 1, a 2, b 3, f 4, m 5,
			// rk1 6, rk2 7, c 8, g 9. A tie-cutting sort groups by two
			// keys, so that many groups share a count.
			joined := (pi+shape)%2 == 1
			keys, groupBy := []int{0}, srng.Perm(4)[:1+srng.Intn(2)]
			switch {
			case joined && (shape == 1 || srng.Intn(2) == 0):
				keys, groupBy = []int{0, 1}, []int{1, 6}
			case joined:
				groupBy = []int{[]int{0, 6}[srng.Intn(2)]}
			case shape == 1:
				groupBy = []int{0, 1}
			}
			var aggs []AggDef
			if joined {
				aggs = randDiffAggs(srng, []int{0, 2, 8}, []int{1, 3, 7}, []int{4, 9}, []int{5})
			} else {
				aggs = randDiffAggs(srng, []int{0, 2}, []int{1, 3}, []int{4}, []int{5})
			}
			aggs = append(aggs, AggDef{Func: "count", Name: "n"})
			var g []*Expr
			for _, c := range groupBy {
				g = append(g, Col(c))
			}
			var want []row.Row
			if joined {
				want = refJoinAgg(leftRows, rightRows, keys, keys, groupBy, aggs)
			} else {
				want = refAgg(leftRows, g, aggs)
			}
			// Sort on an aggregate column (count(*) to cut through ties),
			// by its key bytes and then by the row's, as the edge does.
			sc, desc := len(g)+srng.Intn(len(aggs)), srng.Intn(2) == 0
			if shape == 1 {
				sc = len(g) + len(aggs) - 1
			}
			sortKey := func(r row.Row) []byte {
				k := row.EncodeKey(nil, r[sc])
				if desc {
					row.FlipKey(k)
				}
				return k
			}
			slices.SortFunc(want, func(a, b row.Row) int {
				if c := bytes.Compare(sortKey(a), sortKey(b)); c != 0 {
					return c
				}
				return bytes.Compare(row.Encode(nil, a), row.Encode(nil, b))
			})
			limit := 0 // a range sort's
			switch shape {
			case 0:
				limit = 1 + srng.Intn(5)
			case 1: // the first cut between two groups of one count
				for i := 1; i < len(want) && limit == 0; i++ {
					if bytes.Equal(sortKey(want[i-1]), sortKey(want[i])) {
						limit = i
					}
				}
				if limit == 0 {
					t.Fatalf("sort case %d: no two groups share a count", sorts)
				}
			}
			if limit > 0 {
				want = want[:min(limit, len(want))]
			}
			mk := func(out string) []*Node {
				var in *Node
				if joined {
					var kl []*Expr
					for _, c := range keys {
						kl = append(kl, Col(c))
					}
					in = JoinNode(Scan(left), Scan(right), kl, kl, false)
				} else {
					in = Scan(left)
				}
				a := AggNode(in, g, make([]string, len(g)), aggs)
				if limit == 0 {
					return []*Node{StoreNode(RangeSortNode(a, []*Expr{Col(sc)}, []bool{desc}, 0, parts), out)}
				}
				return []*Node{StoreNode(SortNode(a, []*Expr{Col(sc)}, []bool{desc}, limit), out)}
			}
			name := fmt.Sprintf("sorted%02d", sorts)
			requireUnsortedFolds(t, name, cfg, mk("/x"))
			tezOut, mrOut := "/out/"+name+"-tez", "/out/"+name+"-mr"
			if _, err := RunTez(sess, cfg, name, mk(tezOut)); err != nil {
				t.Fatalf("%s on tez: %v", name, err)
			}
			if _, err := RunMR(h.plat, am.Config{Name: name + "-mr"}, cfg, name+"-mr", mk(mrOut)); err != nil {
				t.Fatalf("%s on mr: %v", name, err)
			}
			for _, out := range []string{tezOut, mrOut} {
				if got := h.stored(out); !bytes.Equal(encodeAll(got), encodeAll(want)) {
					t.Fatalf("%s: stored\n%s\nwant, in order,\n%s", out, fmtRows(got), fmtRows(want))
				}
			}
		}
		for i := 0; i < 2; i++ {
			bcasts++
			broadcastDiffCase(t, h, sess, cfg, brng, fmt.Sprintf("bcast%02d", bcasts))
		}
		sess.Close()
	}
}

// broadcastDiffCase runs one broadcast case of TestHashEdgeDifferential.
// The probe side is a table (k:int, a:int, s); the build side is a table
// (bk, bv:int, bs, bx:int) whose schema gained bx after some of its files
// were written: those files' rows are 3 columns wide, so the build frames
// come in two widths. bk mixes Int and Float keys, NULLs and duplicates. One join feeds three stores: the join itself (compared as a
// multiset), an aggregate grouped by a probe column (compared as a
// multiset), and a filter then a sort with a LIMIT (compared in the
// sort's (key, row bytes) order). Tez joins by broadcast, the MR chain
// by a shuffle; both must store the reference's rows.
func broadcastDiffCase(t *testing.T, h *harness, sess *am.Session, cfg Config, rng *rand.Rand, name string) {
	t.Helper()
	maybe := func(v row.Value) row.Value {
		if rng.Intn(6) == 0 {
			return row.Null()
		}
		return v
	}
	probeRow := func(k row.Value) row.Row {
		return row.Row{k, maybe(row.Int(int64(rng.Intn(101) - 50))), row.String(fmt.Sprintf("p%d", rng.Intn(4)))}
	}
	buildRow := func(k row.Value) row.Row {
		return row.Row{k, maybe(row.Int(int64(rng.Intn(21) - 10))), row.String(fmt.Sprintf("b%d", rng.Intn(3)))}
	}
	// Key 1 as an Int in a 3-column row and as a Float in a 4-column one,
	// and a NULL key on both sides, in every case.
	probeRows := []row.Row{probeRow(row.Int(1)), probeRow(row.Null())}
	b3 := []row.Row{buildRow(row.Int(1)), buildRow(row.Null())}
	b4 := []row.Row{append(buildRow(row.Float(1)), row.Int(0))}
	for i := 0; i < 40+rng.Intn(60); i++ {
		probeRows = append(probeRows, probeRow(maybe(row.Int(int64(rng.Intn(6)-1)))))
	}
	for i := 0; i < 6+rng.Intn(20); i++ {
		k := int64(rng.Intn(5) - 1)
		key := row.Int(k)
		if rng.Intn(2) == 0 {
			key = row.Float(float64(k))
		}
		if rng.Intn(2) == 0 {
			b3 = append(b3, buildRow(maybe(key)))
		} else {
			b4 = append(b4, append(buildRow(maybe(key)), maybe(row.Int(int64(rng.Intn(9))))))
		}
	}
	rng.Shuffle(len(probeRows), func(i, j int) { probeRows[i], probeRows[j] = probeRows[j], probeRows[i] })
	probe := h.table(name+"_p", row.NewSchema("k:int", "a:int", "s"), 3, probeRows)
	build := h.table(name+"_b", row.NewSchema("bk:float", "bv:int", "bs", "bx:int"), 2, b4)
	old := h.table(name+"_b3", row.NewSchema("bk:float", "bv:int", "bs"), 2, b3)
	build.Files = append(old.Files, build.Files...)

	// Join output: k 0, a 1, s 2, bk 3, bv 4, bs 5, bx 6 (past a 3-column
	// build row: null).
	var joined []row.Row
	for _, p := range probeRows {
		for _, b := range append(append([]row.Row{}, b3...), b4...) {
			if !p[0].IsNull() && bytes.Equal(row.EncodeKey(nil, p[0]), row.EncodeKey(nil, b[0])) {
				joined = append(joined, append(append(row.Row{}, p...), b...))
			}
		}
	}
	groupBy := []*Expr{Col(rng.Intn(2))}
	aggs := append(randDiffAggs(rng, []int{0, 1, 4}, []int{2, 5}, []int{3}, []int{3, 6}), AggDef{Func: "count", Name: "n"})
	filter := Cmp(">", Col(1), LitInt(int64(rng.Intn(61)-40)))
	sc, desc, limit := rng.Intn(6), rng.Intn(2) == 0, 1+rng.Intn(12)
	var sorted []row.Row
	for _, r := range joined {
		if Truthy(filter.Eval(r)) {
			sorted = append(sorted, r)
		}
	}
	sortKey := func(r row.Row) []byte {
		k := row.EncodeKey(nil, r[sc])
		if desc {
			row.FlipKey(k)
		}
		return k
	}
	slices.SortFunc(sorted, func(a, b row.Row) int {
		if c := bytes.Compare(sortKey(a), sortKey(b)); c != 0 {
			return c
		}
		return bytes.Compare(row.Encode(nil, a), row.Encode(nil, b))
	})
	sorted = sorted[:min(limit, len(sorted))]

	mk := func(out string, broadcast bool) []*Node {
		j := JoinNode(Scan(probe), Scan(build), []*Expr{Col(0)}, []*Expr{Col(0)}, broadcast)
		return []*Node{
			StoreNode(j, out+"/join"),
			StoreNode(AggNode(j, groupBy, []string{"g"}, aggs), out+"/agg"),
			StoreNode(SortNode(FilterNode(j, filter), []*Expr{Col(sc)}, []bool{desc}, limit), out+"/sort"),
		}
	}
	d, err := EmitDAGOnly(cfg, name, mk("/x", true))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(d.Edges, func(e *dag.Edge) bool { return e.Property.Movement == dag.Broadcast }) {
		t.Fatalf("%s: the Tez plan has no broadcast edge", name)
	}
	tezOut, mrOut := "/out/"+name+"-tez", "/out/"+name+"-mr"
	if _, err := RunTez(sess, cfg, name, mk(tezOut, true)); err != nil {
		t.Fatalf("%s on tez: %v", name, err)
	}
	if _, err := RunMR(h.plat, am.Config{Name: name + "-mr"}, cfg, name+"-mr", mk(mrOut, false)); err != nil {
		t.Fatalf("%s on mr: %v", name, err)
	}
	for _, out := range []string{tezOut, mrOut} {
		stored := h.stored(out + "/join")
		for _, r := range stored {
			if r[0].IsNull() || r[3].IsNull() {
				t.Fatalf("%s/join stored a pair on a NULL key: %v", out, r)
			}
		}
		h.sameRows(out+" join vs reference", stored, joined)
		h.sameRows(out+" agg vs reference", h.stored(out+"/agg"), refAgg(joined, groupBy, aggs))
		if got := h.stored(out + "/sort"); !bytes.Equal(encodeAll(got), encodeAll(sorted)) {
			t.Fatalf("%s/sort: stored\n%s\nwant, in order,\n%s", out, fmtRows(got), fmtRows(sorted))
		}
	}
}

// requireUnsortedFolds compiles roots for Tez and fails unless the DAG
// has a fold and ExplainStages marks every fold unsorted.
func requireUnsortedFolds(t *testing.T, name string, cfg Config, roots []*Node) {
	t.Helper()
	d, err := EmitDAGOnly(cfg, name, roots)
	if err != nil {
		t.Fatal(err)
	}
	text := ExplainStages(d)
	folds, unsorted := 0, 0
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "  group agg") || strings.Contains(line, " -> agg ") {
			folds++
			if strings.HasSuffix(line, " unsorted") {
				unsorted++
			}
		}
	}
	if folds == 0 || unsorted != folds {
		t.Fatalf("%s: %d of %d folds unsorted:\n%s", name, unsorted, folds, text)
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
func orderedGroups(recs []capturedKV) *sliceGroups {
	slices.SortFunc(recs, func(a, b capturedKV) int {
		if c := bytes.Compare(a.key, b.key); c != 0 {
			return c
		}
		return bytes.Compare(a.val, b.val)
	})
	groups := &sliceGroups{}
	for i, r := range recs {
		if i == 0 || !bytes.Equal(r.key, recs[i-1].key) {
			groups.keys, groups.vals = append(groups.keys, r.key), append(groups.vals, nil)
		}
		groups.vals[len(groups.vals)-1] = append(groups.vals[len(groups.vals)-1], r.val)
	}
	return groups
}

// foldSorted folds sorted groups as runGrouped does — an agg stage's
// values, or a fused join's product — through a hashFold batching by
// size, and fails if its table ever holds more than partialGroupCap
// groups.
func foldSorted(g *GroupOp, size int, groups *sliceGroups, ems []*vecEmitter) error {
	f, err := getHashFold(g, size)
	if err != nil {
		return err
	}
	defer hashFolds.Put(f)
	var join joinGroups
	for i, values := range groups.vals {
		if g.Kind == "agg" {
			err = f.addGroup(ems, groups.keys[i], values)
		} else {
			err = f.addJoin(ems, groups.keys[i], &join, values)
		}
		if err != nil {
			return err
		}
		if n := len(f.first); n > partialGroupCap {
			return fmt.Errorf("table holds %d groups, cap %d", n, partialGroupCap)
		}
	}
	return f.emit(ems)
}

// ascendingGroups keys groups of values 0, 1, 2, …: distinct groups as a
// sorted input delivers them.
func ascendingGroups(vals [][][]byte) *sliceGroups {
	groups := &sliceGroups{vals: vals}
	for i := range vals {
		groups.keys = append(groups.keys, row.EncodeKey(nil, row.Int(int64(i))))
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
// ordered edge's at batch sizes 1–8: an agg stage's rows, and a fused
// join's, folded from frames of 1–8 rows in arrival order against the
// same rows sorted and grouped, folded with the table capped at the
// default, 1, 2 and 3 groups (it never holds more), with the row oracle
// beside both; over int and string columns with nulls. The outputs must
// be the same records in the same order.
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
	defaultCap := partialGroupCap
	defer func() { partialGroupCap = defaultCap }()
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(8)
		p := &stageProcessor{}
		hashEm, hashW := sinkEmitter(size)
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
		var g *GroupOp
		var groups *sliceGroups
		if trial%2 == 0 {
			// An agg stage's rows: [group..., args...].
			gw := 1 + rng.Intn(3)
			kinds := make([]bool, gw+1+rng.Intn(3))
			for c := range kinds {
				kinds[c] = rng.Intn(2) == 0
			}
			g = &GroupOp{Kind: "agg", GroupWidth: gw}
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
			groups = orderedGroups(recs)
			for _, values := range groups.vals {
				if err := p.aggGroup(g, values, oracle.emit); err != nil {
					t.Fatal(err)
				}
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
			g = &GroupOp{Kind: "join", GroupWidth: 1, AggInput: []*Expr{Col(groupCol)}}
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
			if err := f.join(ins, nil); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			groups = orderedGroups(recs)
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
		if err := hashEm.close(); err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("trial %d (batch size %d)", trial, size)
		sameRecords(t, what+" hash vs oracle", oracleW.kvs, hashW.kvs)
		for _, c := range []int{defaultCap, 1, 2, 3} {
			partialGroupCap = c
			ordEm, ordW := sinkEmitter(size)
			if err := foldSorted(g, size, groups, []*vecEmitter{ordEm}); err != nil {
				t.Fatalf("%s at cap %d: %v", what, c, err)
			}
			if err := ordEm.close(); err != nil {
				t.Fatal(err)
			}
			sameRecords(t, fmt.Sprintf("%s hash vs ordered at cap %d", what, c), ordW.kvs, hashW.kvs)
		}
	}
}

// TestHashFoldSortsOnlyWhenObserved pins observesOrder: a fold whose
// groups were first seen out of key order writes them in key order when a
// sink is among its emitters, alone or beside a shuffle, and first seen
// first when every emitter is a shuffle — to an ordered edge, to a hash
// edge, or limited.
func TestHashFoldSortsOnlyWhenObserved(t *testing.T) {
	g := &GroupOp{Kind: "agg", GroupWidth: 1, Aggs: []AggFuncSpec{{Func: "count", Col: 1}}}
	firstSeen := []int64{3, -2, 7, 0, 5}
	keyOrder := slices.Clone(firstSeen)
	slices.Sort(keyOrder)
	var rows []row.Row
	for _, k := range append(slices.Clone(firstSeen), keyOrder...) {
		rows = append(rows, row.Row{row.Int(k), row.Int(1)})
	}
	shuffle := EmitSpec{Kind: EmitShuffle, Output: "o", Tag: -1, Keys: []*Expr{Col(0)}}
	limited := shuffle
	limited.Limit = 2
	sink := EmitSpec{Kind: EmitSink, Output: "sink", Tag: -1}
	// keysOf returns the group keys of the rows a writer was handed, in
	// order.
	keysOf := func(w any) []int64 {
		var keys []int64
		switch w := w.(type) {
		case *captureWriter:
			for _, kv := range w.kvs {
				r, err := row.Decode(kv.val)
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, r[0].Int)
			}
		case *framesWriter:
			for _, fr := range w.frames[0] {
				b, err := col.DecodeBatch(fr.val)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < b.Len(); i++ {
					keys = append(keys, b.MaterializeRow(i)[0].Int)
				}
			}
		}
		return keys
	}
	for _, c := range []struct {
		name  string
		specs []EmitSpec
		hash  int // the emit that writes to a hash edge, or -1
		want  []int64
	}{
		{"sink", []EmitSpec{sink}, -1, keyOrder},
		{"shuffles", []EmitSpec{shuffle, shuffle, limited}, 1, firstSeen},
		{"shuffle and sink", []EmitSpec{shuffle, sink}, -1, keyOrder},
	} {
		f, err := getHashFold(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		in := &recordReader{recs: framesOf(rand.New(rand.NewSource(1)), rows, nil)}
		if err := f.addInputs([]hashInput{{kv: in, keys: []*Expr{Col(0)}}}); err != nil {
			t.Fatal(err)
		}
		var ems []*vecEmitter
		var ws []any
		for i, spec := range c.specs {
			var w runtime.KVWriter = &captureWriter{}
			if i == c.hash {
				w = &framesWriter{n: 1, frames: make([][]capturedKV, 1)}
			}
			ems, ws = append(ems, newVecEmitter(spec, w, nil, 4)), append(ws, w)
		}
		if err := f.emit(ems); err != nil {
			t.Fatal(err)
		}
		hashFolds.Put(f)
		for i, em := range ems {
			if err := em.close(); err != nil {
				t.Fatal(err)
			}
			if c.specs[i].Limit > 0 {
				continue // a top-k writes its records sorted at close
			}
			if got := keysOf(ws[i]); !slices.Equal(got, c.want) {
				t.Errorf("%s: emitter %d (%s) was handed groups %v, want %v", c.name, i, c.specs[i].Kind, got, c.want)
			}
		}
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
// frames (partial states among them), foreign tags, an agg row narrower
// than its group key, and a partial agg's state column holding ints or
// strings that are no states.
func TestHashEdgeCorruptInput(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	aggOp := &GroupOp{Kind: "agg", GroupWidth: 2, Aggs: []AggFuncSpec{{Func: "sum", Col: 2}, {Func: "min", Col: 3}}}
	joinOp := &GroupOp{Kind: "join", GroupWidth: 1, AggInput: []*Expr{Col(0), Col(3)},
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
			err = f.join(in, nil)
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
		{aggOp, []capturedKV{{key: []byte{0}, val: aggFrames[0].val}}},                                               // keyed agg frame
		{joinOp, []capturedKV{{key: nil, val: joinFrames[0].val}}},                                                   // untagged
		{joinOp, []capturedKV{{key: []byte{2}, val: joinFrames[0].val}}},                                             // tag out of range
		{joinOp, []capturedKV{{key: []byte{0, 1}, val: joinFrames[0].val}}},                                          // two-byte tag
		{&GroupOp{Kind: "agg", GroupWidth: 5}, aggFrames},                                                            // rows under the key
		{aggOp, []capturedKV{{val: []byte{0xB5}}}},                                                                   // cut header
		{&GroupOp{Kind: "distinct"}, aggFrames},                                                                      // not a hash fold
		{&GroupOp{Kind: "agg", Aggs: []AggFuncSpec{{Func: "median", Col: 0}}}, aggFrames},                            // unknown aggregate
		{&GroupOp{Kind: "agg", GroupWidth: 2, Partial: true, Aggs: []AggFuncSpec{{Func: "sum", Col: 2}}}, aggFrames}, // ints, not states
		{&GroupOp{Kind: "agg", GroupWidth: 2, Partial: true, Aggs: []AggFuncSpec{{Func: "min", Col: 3}}}, aggFrames}, // strings, not states
	} {
		if c.g.Kind == "distinct" {
			p := &stageProcessor{spec: &StageSpec{Group: c.g}}
			if err := p.runGroups(nil, []hashInput{{}}, nil); err == nil {
				t.Errorf("distinct over a hash edge: no error")
			}
			continue
		}
		if err := run(c.g, c.recs); err == nil {
			t.Errorf("%s over %x: no error", c.g.Kind, c.recs)
		}
	}
	// A pre-aggregating producer's frames of partial states.
	partialOp := &GroupOp{Kind: "agg", GroupWidth: 2, Partial: true, Aggs: aggOp.Aggs}
	pw := &framesWriter{n: 1, frames: make([][]capturedKV, 1)}
	ve := newVecEmitter(EmitSpec{Kind: EmitShuffle, Keys: []*Expr{Col(0), Col(1)}, Tag: -1, Aggs: aggOp.Aggs}, pw, nil, 4)
	for _, r := range rows {
		if err := ve.add(row.Encode(nil, r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ve.close(); err != nil {
		t.Fatal(err)
	}
	if err := run(partialOp, pw.frames[0]); err != nil {
		t.Fatalf("intact partial frames: %v", err)
	}
	for i := 0; i < 3000; i++ {
		g, src := aggOp, aggFrames
		switch i % 3 {
		case 1:
			g, src = joinOp, joinFrames
		case 2:
			g, src = partialOp, pw.frames[0]
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
	aggs := []AggDef{{Func: "sum", Arg: Col(8), Name: "s"}}
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

// TestFloatExtremesIgnoreOrder: -0 and +0 tie under row.Compare, but min
// and max break the tie by row.CompareTotal, so the bytes written do not
// follow the rows' arrival order, and a float min takes a hash edge.
func TestFloatExtremesIgnoreOrder(t *testing.T) {
	g := &GroupOp{Kind: "agg", GroupWidth: 1, Aggs: []AggFuncSpec{{Func: "min", Col: 1}, {Func: "max", Col: 1}}}
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
	want := row.Encode(nil, row.Row{row.Int(1), row.Float(math.Copysign(0, -1)), row.Float(0)})
	for i := range out {
		if !bytes.Equal(out[i][0].val, want) {
			t.Fatalf("order %d: min and max over +0 and -0 wrote %x, want %x", i, out[i][0].val, want)
		}
	}
	if hash, _ := edgeCounts(t, []*Node{StoreNode(AggNode(Scan(&Table{Name: "t",
		Schema: row.NewSchema("k:int", "x:float"), Files: []string{"/t/0"}}),
		[]*Expr{Col(0)}, []string{"k"}, []AggDef{{Func: "min", Arg: Col(1), Name: "m"}}), "/o")}); hash != 1 {
		t.Fatal("a float min keeps the ordered edge")
	}
}

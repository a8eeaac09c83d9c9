package hive

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tez/internal/am"
	"tez/internal/dag"
	"tez/internal/data"
	"tez/internal/library"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/relop"
	"tez/internal/row"
	"tez/internal/testutil"
	"tez/internal/timeline"
)

func TestParserShapes(t *testing.T) {
	st, err := Parse(`SELECT l_returnflag, sum(l_quantity) AS q, count(*) AS n
		FROM lineitem WHERE l_shipdate <= 19980902 AND l_discount BETWEEN 0.01 AND 0.05
		GROUP BY l_returnflag ORDER BY q DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Select) != 3 || st.Select[1].Alias != "q" {
		t.Fatalf("select = %+v", st.Select)
	}
	if st.From.Name != "lineitem" || len(st.GroupBy) != 1 {
		t.Fatal("from/group wrong")
	}
	if len(st.OrderBy) != 1 || !st.OrderBy[0].Desc || st.Limit != 5 {
		t.Fatal("order/limit wrong")
	}
	// BETWEEN desugars to AND of comparisons.
	conj := splitConjuncts(st.Where)
	if len(conj) != 3 {
		t.Fatalf("where conjuncts = %d", len(conj))
	}
}

func TestParserJoinsAndAliases(t *testing.T) {
	st, err := Parse(`SELECT c.c_name, o.o_totalprice FROM orders o
		JOIN customer c ON o.o_custkey = c.c_custkey
		WHERE c.c_mktsegment = 'BUILDING' AND o.o_orderdate < 19950315`)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Joins) != 1 || st.Joins[0].Table.Alias != "c" || st.From.Alias != "o" {
		t.Fatalf("joins = %+v", st.Joins)
	}
}

func TestParserErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t trailing garbage ,",
		"SELECT a FROM t WHERE 'unterminated",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Fatalf("parsed invalid query %q", q)
		}
	}
}

func TestParserIn(t *testing.T) {
	st, err := Parse("SELECT a FROM t WHERE a IN (1, 2, 3)")
	if err != nil {
		t.Fatal(err)
	}
	// IN desugars to OR of equalities.
	if st.Where.Op != "or" {
		t.Fatalf("where = %+v", st.Where)
	}
}

// FuzzParse: no statement text panics the statement grammar, the shared
// expression grammar under it, or the case folding after it.
func FuzzParse(f *testing.F) {
	for _, q := range []string{
		`SELECT l_returnflag, sum(l_quantity) AS q, count(*) AS n
		FROM lineitem WHERE l_shipdate <= 19980902 AND l_discount BETWEEN 0.01 AND 0.05
		GROUP BY l_returnflag ORDER BY q DESC LIMIT 5`,
		`SELECT c.c_name, o.o_totalprice FROM orders o
		JOIN customer c ON o.o_custkey = c.c_custkey
		WHERE c.c_mktsegment = 'BUILDING' AND o.o_orderdate < 19950315`,
		"SELECT a FROM t WHERE a IN (1, 2, 3)",
		"SELECT o_custkey, count(*) AS n FROM orders GROUP BY o_custkey HAVING n >= 2 ORDER BY o_custkey",
		"SELECT * FROM t", "SELECT -a * (b + 1) FROM t WHERE NOT a <> 1 OR b == 2",
		"", "SELECT", "SELECT a FROM", "SELECT a FROM t WHERE", "SELECT a FROM t LIMIT x",
		"SELECT a FROM t trailing garbage ,", "SELECT a FROM t WHERE 'unterminated",
		"SELECT a FROM t LIMIT 99999999999999999999", "SELECT sum(*) FROM t",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := Parse(sql)
		if err == nil && (st == nil || len(st.Select) == 0 || st.From.Name == "") {
			t.Fatalf("%q parsed to %+v", sql, st)
		}
	})
}

// --- end-to-end: tiny warehouse with hand-checked answers ---

type hiveHarness struct {
	t    *testing.T
	plat *platform.Platform
	eng  *Engine
	sess *am.Session
}

func newHiveHarness(t *testing.T) *hiveHarness {
	plat := platform.New(platform.Fast(4))
	testutil.FsckAtEnd(t, plat.FS)
	eng := NewEngine()
	// orders: (okey, custkey, price, date)
	orders := &relop.Table{Name: "orders", Schema: row.NewSchema(
		"o_orderkey:int", "o_custkey:int", "o_totalprice:float", "o_orderdate:int")}
	oRows := []row.Row{
		{row.Int(1), row.Int(10), row.Float(100), row.Int(19950101)},
		{row.Int(2), row.Int(10), row.Float(200), row.Int(19950601)},
		{row.Int(3), row.Int(20), row.Float(300), row.Int(19960101)},
		{row.Int(4), row.Int(30), row.Float(50), row.Int(19960301)},
	}
	if err := relop.WriteTable(plat.FS, orders, 2, oRows); err != nil {
		t.Fatal(err)
	}
	cust := &relop.Table{Name: "customer", Schema: row.NewSchema(
		"c_custkey:int", "c_name", "c_mktsegment")}
	cRows := []row.Row{
		{row.Int(10), row.String("alice"), row.String("BUILDING")},
		{row.Int(20), row.String("bob"), row.String("AUTOMOBILE")},
		{row.Int(30), row.String("carol"), row.String("BUILDING")},
	}
	if err := relop.WriteTable(plat.FS, cust, 1, cRows); err != nil {
		t.Fatal(err)
	}
	eng.Register(orders, cust)
	sess := am.NewSession(plat, am.Config{Name: "hive"})
	t.Cleanup(func() { sess.Close(); plat.Stop() })
	return &hiveHarness{t: t, plat: plat, eng: eng, sess: sess}
}

func (h *hiveHarness) query(name, sql string) []row.Row {
	h.t.Helper()
	rows, err := h.eng.Query(h.sess, h.plat, name, sql)
	if err != nil {
		h.t.Fatalf("query %s: %v", name, err)
	}
	return rows
}

// queryMR runs on the MR backend and reads the output.
func (h *hiveHarness) queryMR(name, sql string) []row.Row {
	h.t.Helper()
	out := "/results/" + name
	h.plat.FS.DeletePrefix(out + "/")
	if _, err := h.eng.RunMR(h.plat, am.Config{Name: name}, name, sql, out); err != nil {
		h.t.Fatalf("mr query %s: %v", name, err)
	}
	rows, err := relop.ReadStored(h.plat.FS, out)
	if err != nil {
		h.t.Fatal(err)
	}
	return rows
}

func renderRows(rows []row.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func sortedRender(rows []row.Row) []string {
	out := renderRows(rows)
	sort.Strings(out)
	return out
}

func expectRows(t *testing.T, got []row.Row, want []string, ordered bool) {
	t.Helper()
	g := renderRows(got)
	w := append([]string{}, want...)
	if !ordered {
		sort.Strings(g)
		sort.Strings(w)
	}
	if len(g) != len(w) {
		t.Fatalf("rows = %v, want %v", g, w)
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("row %d = %q, want %q\nall: %v", i, g[i], w[i], g)
		}
	}
}

func TestSelectFilterProject(t *testing.T) {
	h := newHiveHarness(t)
	got := h.query("q1", "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice >= 100 AND o_orderdate < 19960000")
	expectRows(t, got, []string{"1|100", "2|200"}, false)
}

func TestGroupByAggregates(t *testing.T) {
	h := newHiveHarness(t)
	got := h.query("q2", "SELECT o_custkey, sum(o_totalprice) AS s, count(*) AS n FROM orders GROUP BY o_custkey")
	expectRows(t, got, []string{"10|300|2", "20|300|1", "30|50|1"}, false)
}

func TestJoinWithWherePushdown(t *testing.T) {
	h := newHiveHarness(t)
	got := h.query("q3", `SELECT c.c_name, o.o_totalprice FROM orders o
		JOIN customer c ON o.o_custkey = c.c_custkey
		WHERE c.c_mktsegment = 'BUILDING'`)
	expectRows(t, got, []string{"alice|100", "alice|200", "carol|50"}, false)
}

func TestJoinGroupOrderLimit(t *testing.T) {
	h := newHiveHarness(t)
	got := h.query("q4", `SELECT c.c_name, sum(o.o_totalprice) AS rev
		FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
		GROUP BY c.c_name ORDER BY rev DESC, c_name LIMIT 2`)
	expectRows(t, got, []string{"alice|300", "bob|300"}, true)
}

func TestOrderByAscending(t *testing.T) {
	h := newHiveHarness(t)
	got := h.query("q5", "SELECT o_orderkey FROM orders ORDER BY o_orderkey")
	expectRows(t, got, []string{"1", "2", "3", "4"}, true)
}

func TestArithmeticInSelect(t *testing.T) {
	h := newHiveHarness(t)
	got := h.query("q6", "SELECT o_orderkey, o_totalprice * 2 FROM orders WHERE o_orderkey = 1")
	expectRows(t, got, []string{"1|200"}, false)
}

func TestTezAndMRAgree(t *testing.T) {
	h := newHiveHarness(t)
	queries := []string{
		"SELECT o_custkey, count(*) AS n FROM orders GROUP BY o_custkey",
		`SELECT c.c_mktsegment, sum(o.o_totalprice) AS s FROM orders o
		 JOIN customer c ON o.o_custkey = c.c_custkey GROUP BY c.c_mktsegment`,
		"SELECT o_orderkey FROM orders WHERE o_totalprice > 60 ORDER BY o_orderkey DESC",
		// o_orderdate and c_mktsegment are named only by the WHERE: the
		// scans must decode them on both backends (broadcast join on Tez,
		// shuffle join on MR).
		`SELECT c.c_name, sum(o.o_totalprice) AS s FROM orders o
		 JOIN customer c ON o.o_custkey = c.c_custkey
		 WHERE o.o_orderdate >= 19950601 AND c.c_mktsegment = 'BUILDING' GROUP BY c.c_name`,
	}
	for i, q := range queries {
		tez := sortedRender(h.query(fmt.Sprintf("agree-tez-%d", i), q))
		mr := sortedRender(h.queryMR(fmt.Sprintf("agree-mr-%d", i), q))
		if len(tez) != len(mr) || len(tez) == 0 {
			t.Fatalf("query %d: tez %v vs mr %v", i, tez, mr)
		}
		for j := range tez {
			if tez[j] != mr[j] {
				t.Fatalf("query %d row %d: tez %q vs mr %q", i, j, tez[j], mr[j])
			}
		}
	}
}

// TestScanReadSets: a scan's stage input lists the columns its query
// reads — consumers and pushed-down filter — and nothing else, on both
// backends; a query that reads every column lists none (nil: all).
func TestScanReadSets(t *testing.T) {
	plat := platform.New(platform.Fast(4))
	defer plat.Stop()
	tp, err := data.GenTPCH(plat.FS, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	eng.Register(tp.Tables()...)
	sqlOf := map[string]string{}
	for _, q := range data.TPCHQueries {
		sqlOf[q.Name] = q.SQL
	}
	cols := func(tb *relop.Table, names ...string) []int {
		var out []int
		for _, n := range names {
			out = append(out, tb.Schema.Index(n))
		}
		sort.Ints(out)
		return out
	}
	for _, c := range []struct {
		sql  string
		want map[string][]int // scanned table -> Cols
	}{
		{sqlOf["q1"], map[string][]int{"lineitem": cols(tp.Lineitem,
			"l_quantity", "l_extendedprice", "l_discount", "l_returnflag", "l_linestatus", "l_shipdate")}},
		{sqlOf["q18"], map[string][]int{
			"lineitem": cols(tp.Lineitem, "l_orderkey", "l_quantity"),
			"orders":   cols(tp.Orders, "o_orderkey"),
		}},
		{"SELECT * FROM orders", map[string][]int{"orders": nil}},
		// o_totalprice is read only by the filter pushed into the scan.
		{"SELECT o_orderkey FROM orders WHERE o_totalprice > 100",
			map[string][]int{"orders": cols(tp.Orders, "o_orderkey", "o_totalprice")}},
	} {
		for _, forMR := range []bool{false, true} {
			roots, err := eng.Plan(c.sql, "/out/readsets", forMR)
			if err != nil {
				t.Fatal(err)
			}
			var dags []*dag.DAG
			if forMR {
				jobs, _, err := relop.CompileMR(eng.Exec, "readsets", roots)
				if err != nil {
					t.Fatal(err)
				}
				for _, j := range jobs {
					dags = append(dags, j.DAG)
				}
			} else {
				d, err := relop.EmitDAGOnly(eng.Exec, "readsets", roots)
				if err != nil {
					t.Fatal(err)
				}
				dags = append(dags, d)
			}
			got := map[string][]int{}
			for _, d := range dags {
				for _, v := range d.Vertices {
					var spec relop.StageSpec
					if err := plugin.Decode(v.Processor.Payload, &spec); err != nil {
						t.Fatal(err)
					}
					for _, in := range spec.Inputs {
						if in.Mode == relop.InTable {
							got[v.Name[strings.Index(v.Name, "scan_")+5:]] = in.Cols
						}
					}
				}
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("mr=%v %s\nscans decode %v, want %v", forMR, c.sql, got, c.want)
			}
		}
	}
}

func TestBroadcastJoinChosenForSmallTable(t *testing.T) {
	h := newHiveHarness(t)
	// customer is tiny -> broadcast join on Tez.
	roots, err := h.eng.Plan(`SELECT c.c_name FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey`, "/out/x", false)
	if err != nil {
		t.Fatal(err)
	}
	join := findOp(roots[0], "join")
	if join == nil || !join.Broadcast {
		t.Fatal("small-table join not planned as broadcast")
	}
	// The MR plan must not use broadcast.
	rootsMR, err := h.eng.Plan(`SELECT c.c_name FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey`, "/out/x", true)
	if err != nil {
		t.Fatal(err)
	}
	if j := findOp(rootsMR[0], "join"); j == nil || j.Broadcast {
		t.Fatal("MR plan used broadcast join")
	}
}

func findOp(n *relop.Node, op string) *relop.Node {
	if n == nil {
		return nil
	}
	if n.Op == op {
		return n
	}
	for _, c := range n.Children {
		if f := findOp(c, op); f != nil {
			return f
		}
	}
	return nil
}

func TestUnknownTableAndColumnErrors(t *testing.T) {
	h := newHiveHarness(t)
	if _, err := h.eng.Plan("SELECT x FROM missing", "/out/x", false); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := h.eng.Plan("SELECT nope FROM orders", "/out/x", false); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := h.eng.Plan("SELECT o_custkey, sum(o_totalprice) FROM orders", "/out/x", false); err == nil {
		t.Fatal("non-grouped select item with aggregate accepted")
	}
}

// TestStarOnlyUnderCount: * is an argument of count and of nothing else.
// sum(*) used to plan and answer 4 on the four-row table (min(*) answered
// 1); an unknown function and a call without exactly one argument are
// refused by the same function (relop.ResolveAgg).
func TestStarOnlyUnderCount(t *testing.T) {
	h := newHiveHarness(t)
	for _, q := range []string{
		"SELECT sum(*) FROM orders",
		"SELECT avg(*) FROM orders",
		"SELECT min(*) FROM orders",
		"SELECT max(*) FROM orders",
		"SELECT median(o_totalprice) FROM orders",
		"SELECT sum() FROM orders",
		"SELECT sum(o_totalprice, o_custkey) FROM orders",
		"SELECT o_custkey FROM orders WHERE count(*) > 1",
	} {
		if _, err := h.eng.Plan(q, "/out/x", false); err == nil {
			t.Errorf("planned %q", q)
		}
	}
	expectRows(t, h.query("star", "SELECT COUNT(*) AS n, Sum(o_totalprice) AS s FROM orders"), []string{"4|650"}, false)
}

// TestLimitOutOfRange: a LIMIT that does not fit an int is an error (the
// conversion error used to be dropped and the query planned).
func TestLimitOutOfRange(t *testing.T) {
	h := newHiveHarness(t)
	if _, err := h.eng.Plan("SELECT o_orderkey FROM orders LIMIT 99999999999999999999", "/out/x", false); err == nil {
		t.Fatal("planned an out-of-range LIMIT")
	}
	expectRows(t, h.query("lim", "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 2"), []string{"1", "2"}, true)
}

// TestIdentifiersFoldCase: table names, aliases and column references are
// case-insensitive (folded once, after parsing); string literals are not.
func TestIdentifiersFoldCase(t *testing.T) {
	h := newHiveHarness(t)
	expectRows(t, h.query("upper", "SELECT O_CUSTKEY FROM ORDERS WHERE O_CUSTKEY = 10"), []string{"10", "10"}, false)
	expectRows(t, h.query("upper-join", `SELECT C.C_NAME FROM ORDERS O JOIN CUSTOMER C ON O.O_CUSTKEY = C.C_CUSTKEY
		WHERE C.C_MKTSEGMENT == 'BUILDING' AND O.O_TOTALPRICE BETWEEN 60 AND 150`), []string{"alice"}, false)
	expectRows(t, h.query("upper-lit", "SELECT c_name FROM customer WHERE c_mktsegment = 'building'"), nil, false)
}

func TestHaving(t *testing.T) {
	h := newHiveHarness(t)
	got := h.query("qh", `SELECT o_custkey, count(*) AS n FROM orders
		GROUP BY o_custkey HAVING n >= 2 ORDER BY o_custkey`)
	expectRows(t, got, []string{"10|2"}, true)
	// HAVING without aggregation is rejected.
	if _, err := h.eng.Plan("SELECT o_custkey FROM orders HAVING o_custkey > 1", "/x", false); err == nil {
		t.Fatal("HAVING without aggregation accepted")
	}
}

// TestAggregatesSkipNulls: count(x), sum and avg ignore NULL arguments, as
// in Hive and Pig — count(*) still counts every row, and a sum or avg over
// only NULLs is NULL — on both backends, over a table and through an
// aggregate that runs inside its join.
func TestAggregatesSkipNulls(t *testing.T) {
	h := newHiveHarness(t)
	h.eng.BroadcastThreshold = 0 // shuffle joins only
	vals := &relop.Table{Name: "vals", Schema: row.NewSchema("k:int", "v:int")}
	if err := relop.WriteTable(h.plat.FS, vals, 2, []row.Row{
		{row.Int(1), row.Int(1)}, {row.Int(1), row.Null()},
		{row.Int(2), row.Null()}, {row.Int(2), row.Null()},
		{row.Int(3), row.Int(4)}, {row.Int(3), row.Int(6)},
	}); err != nil {
		t.Fatal(err)
	}
	names := &relop.Table{Name: "names", Schema: row.NewSchema("k:int", "name")}
	if err := relop.WriteTable(h.plat.FS, names, 1, []row.Row{
		{row.Int(1), row.String("a")}, {row.Int(2), row.String("b")}, {row.Int(3), row.String("c")},
	}); err != nil {
		t.Fatal(err)
	}
	h.eng.Register(vals, names)
	want := []string{"1|2|1|1|1", "2|2|0|NULL|NULL", "3|2|2|10|5"}
	fused := `SELECT n.k, count(*) AS rows, count(v.v) AS nv, sum(v.v) AS s, avg(v.v) AS a
		FROM names n JOIN vals v ON n.k = v.k GROUP BY n.k`
	text, err := h.eng.Explain(fused)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "group join -> agg group=1 aggs=[count count sum avg]") {
		t.Fatalf("the aggregate did not run inside the join:\n%s", text)
	}
	for i, q := range []string{
		"SELECT k, count(*) AS rows, count(v) AS nv, sum(v) AS s, avg(v) AS a FROM vals GROUP BY k",
		fused,
	} {
		expectRows(t, h.query(fmt.Sprintf("nulls-%d", i), q), want, false)
		expectRows(t, h.queryMR(fmt.Sprintf("nulls-mr-%d", i), q), want, false)
	}
}

func TestExplain(t *testing.T) {
	h := newHiveHarness(t)
	text, err := h.eng.Explain(`SELECT c.c_name, sum(o.o_totalprice) AS rev
		FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
		GROUP BY c.c_name ORDER BY rev DESC LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"broadcast (map) join", "aggregate", "sort keys=1 limit=1",
		"tez dag:", "SCATTER_GATHER", "BROADCAST",
		// One line per group op and emit: kind, target, pipeline op count.
		"stages:",
		"emit broadcast -> s01_scan_orders (0 ops)",
		"emit shuffle -> s03_agg (2 ops)",
		"group agg unsorted\n",
		"group sort\n",
		"emit sink -> sink01 (0 ops)",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain missing %q:\n%s", want, text)
		}
	}
	if _, err := h.eng.Explain("SELECT nope FROM orders"); err == nil {
		t.Fatal("explain of invalid query succeeded")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/explain from the current planner")

// TestExplainGolden pins the -explain output — logical plan, DAG, and what
// each stage runs and ships — of the benchmark's TPC-H and TPC-DS queries
// (data.TPCHQueries, data.TPCDSQueries) over the data `tez-bench -exp
// f8,f9` generates at its default scale, planned as it plans them. After a
// deliberate plan change, rerun with -update and read the diff.
func TestExplainGolden(t *testing.T) {
	plat := platform.New(platform.Fast(4))
	defer plat.Stop()
	tp, err := data.GenTPCH(plat.FS, 800, 9)
	if err != nil {
		t.Fatal(err)
	}
	td, err := data.GenTPCDS(plat.FS, 4000, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, suite := range []struct {
		name    string
		tables  []*relop.Table
		queries []data.Query
	}{
		{"tpch", tp.Tables(), data.TPCHQueries},
		{"tpcds", td.Tables(), data.TPCDSQueries},
	} {
		eng := NewEngine()
		eng.Exec = relop.Config{DefaultPartitions: 8}
		eng.Register(suite.tables...)
		for _, q := range suite.queries {
			text, err := eng.Explain(q.SQL)
			if err != nil {
				t.Fatalf("%s %s: %v", suite.name, q.Name, err)
			}
			path := filepath.Join("testdata", "explain", suite.name+"-"+q.Name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record it)", err)
			}
			if text != string(want) {
				t.Errorf("%s differs from the planner's explain:\n%s", path, text)
			}
			// q18 aggregates inside its join: two scans, the join, the sort.
			if suite.name == "tpch" && q.Name == "q18" {
				if n := strings.Count(text, "  vertex "); n != 4 {
					t.Errorf("q18 compiles to %d vertices, want 4:\n%s", n, text)
				}
			}
		}
	}
}

// TestHashEdgeChoiceTPCH: every TPC-H query's aggregate states are exact
// in any order and its group keys have declared kinds, so its shuffles
// into the aggregate take hash edges on Tez — one into q1's, q3's, q5's
// and q12's agg stage, and q18's two join sides, fused with its sum; the
// MR chain sorts every shuffle.
func TestHashEdgeChoiceTPCH(t *testing.T) {
	plat := platform.New(platform.Fast(2))
	defer plat.Stop()
	// At TestExplainGolden's scale: orders too big to broadcast.
	tp, err := data.GenTPCH(plat.FS, 800, 9)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	eng.Register(tp.Tables()...)
	want := map[string]int{"q1": 1, "q3": 1, "q5": 1, "q12": 1, "q18": 2}
	for _, q := range data.TPCHQueries {
		roots, err := eng.Plan(q.SQL, "/out/"+q.Name, false)
		if err != nil {
			t.Fatal(err)
		}
		d, err := relop.EmitDAGOnly(eng.Exec, q.Name, roots)
		if err != nil {
			t.Fatal(err)
		}
		hash := 0
		for _, e := range d.Edges {
			if e.Property.Output.Name == library.UnorderedPartitionedOutputName {
				hash++
			}
		}
		if hash != want[q.Name] {
			t.Errorf("%s: %d hash edges, want %d", q.Name, hash, want[q.Name])
		}
		roots, err = eng.Plan(q.SQL, "/out/"+q.Name, true)
		if err != nil {
			t.Fatal(err)
		}
		jobs, _, err := relop.CompileMR(eng.Exec, q.Name, roots)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			for _, e := range j.DAG.Edges {
				if e.Property.Output.Name != library.OrderedPartitionedOutputName {
					t.Errorf("%s on MR: edge %s->%s is %s", q.Name, e.From, e.To, e.Property.Output.Name)
				}
			}
		}
	}
}

// TestSplitGroupingSameRows: who sizes the scan tasks changes how many
// there are and nothing else. The same table in 64 small files, the same
// aggregate query: with SplitSize at the block size the scan vertex has one
// task per block; with SplitSize 0 the library groups the same blocks to
// DefaultGroupBytes a task; the rows are identical, on Tez and through the
// MapReduce chain (whose map side is sized by the same rule).
func TestSplitGroupingSameRows(t *testing.T) {
	const sql = `SELECT g, count(*) AS n, sum(v) AS s, max(k) AS m FROM t WHERE k >= 100 GROUP BY g ORDER BY g`
	plat := platform.New(platform.Fast(8))
	defer plat.Stop()
	rows := make([]row.Row, 40_000)
	for i := range rows {
		rows[i] = row.Row{row.Int(int64(i)), row.Int(int64(i % 11)), row.Float(float64(i%97) / 4)}
	}
	tbl := &relop.Table{Name: "t", Schema: row.NewSchema("k:int", "g:int", "v:float")}
	if err := relop.WriteTable(plat.FS, tbl, 64, rows); err != nil {
		t.Fatal(err)
	}
	var total, blocks int64
	for _, f := range tbl.Files {
		sz, err := plat.FS.Size(f)
		if err != nil {
			t.Fatal(err)
		}
		total += sz
		blocks += (sz + plat.FS.BlockSize() - 1) / plat.FS.BlockSize()
	}
	want := total/library.DefaultGroupBytes + 1
	if want < 2 || want >= blocks/4 {
		t.Fatalf("%d bytes in %d blocks: grouping to %d tasks is not exercised", total, blocks, want)
	}

	read := func(out string) []string {
		stored, err := relop.ReadStored(plat.FS, out)
		if err != nil {
			t.Fatal(err)
		}
		return renderRows(stored)
	}
	run := func(name string, splitSize int64) (scanTasks int64, tez, mr []string) {
		eng := NewEngine()
		eng.Register(tbl)
		eng.Exec.SplitSize = splitSize
		journal := timeline.New()
		sess := am.NewSession(plat, am.Config{Name: name, Timeline: journal})
		defer sess.Close()
		res, err := eng.RunTez(sess, name, sql, "/results/"+name)
		if err != nil || res.Status != am.DAGSucceeded {
			t.Fatalf("%s on tez: %v %v", name, res.Status, err)
		}
		scans := map[int]bool{}
		for _, e := range journal.Events() {
			if e.Type == timeline.AttemptFinished && strings.Contains(e.Vertex, "scan") {
				scans[e.Task] = true
			}
		}
		if _, err := eng.RunMR(plat, am.Config{Name: name + "-mr"}, name+"-mr", sql, "/results/"+name+"-mr"); err != nil {
			t.Fatalf("%s on mr: %v", name, err)
		}
		return int64(len(scans)), read("/results/" + name), read("/results/" + name + "-mr")
	}
	perBlock, rowsBlock, mrBlock := run("per-block", plat.FS.BlockSize())
	grouped, rowsGrouped, mrGrouped := run("grouped", 0)
	t.Logf("%d bytes, %d blocks: %d scan tasks per block, %d grouped (want %d)", total, blocks, perBlock, grouped, want)
	if perBlock != blocks {
		t.Errorf("SplitSize = block size: %d scan tasks for %d blocks", perBlock, blocks)
	}
	if grouped < want || grouped > want+1 {
		t.Errorf("SplitSize 0: %d scan tasks, want %d (one more if the remainder stands alone)", grouped, want)
	}
	if len(rowsBlock) != 11 {
		t.Fatalf("%d result rows: %v", len(rowsBlock), rowsBlock)
	}
	for name, got := range map[string][]string{"grouped tez": rowsGrouped, "per-block mr": mrBlock, "grouped mr": mrGrouped} {
		if !reflect.DeepEqual(got, rowsBlock) {
			t.Errorf("%s rows differ from per-block tez:\n%v\n%v", name, got, rowsBlock)
		}
	}
}

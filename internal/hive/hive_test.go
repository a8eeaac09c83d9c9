package hive

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tez/internal/am"
	"tez/internal/library"
	"tez/internal/platform"
	"tez/internal/relop"
	"tez/internal/row"
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
	}
	for i, q := range queries {
		tez := sortedRender(h.query(fmt.Sprintf("agree-tez-%d", i), q))
		mr := sortedRender(h.queryMR(fmt.Sprintf("agree-mr-%d", i), q))
		if len(tez) != len(mr) {
			t.Fatalf("query %d: tez %v vs mr %v", i, tez, mr)
		}
		for j := range tez {
			if tez[j] != mr[j] {
				t.Fatalf("query %d row %d: tez %q vs mr %q", i, j, tez[j], mr[j])
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
		"group agg\n",
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

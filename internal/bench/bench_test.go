package bench

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"path"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"tez/internal/am"
	"tez/internal/chaos"
	"tez/internal/col"
	"tez/internal/data"
	"tez/internal/hive"
	"tez/internal/library"
	"tez/internal/platform"
	"tez/internal/relop"
	"tez/internal/row"
	"tez/internal/testutil"
)

// tiny finishes each figure in well under a second for unit testing.
var tiny = Scale{
	Name:       "tiny",
	TPCDSSales: 600, TPCHOrders: 150,
	NodesF8: 4, NodesF9: 4,
	PigRows:      400,
	KMeansPoints: 300, KMeansIters: []int{2},
	SparkUsers: 3, SparkRows: 300, SparkScales: []int{1},
	SparkExecs: 4, SparkClusterN: 2,
}

func requireRows(t *testing.T, rep *Report, minRows int) {
	t.Helper()
	if rep == nil || len(rep.Rows) < minRows {
		t.Fatalf("report %+v has too few rows", rep)
	}
	if s := rep.String(); !strings.Contains(s, rep.Figure) {
		t.Fatal("render missing figure tag")
	}
}

func cell(t *testing.T, rep *Report, r, c int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(rep.Rows[r][c], "x"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", r, c, rep.Rows[r][c], err)
	}
	return v
}

func TestHiveTPCDSReport(t *testing.T) {
	rep, err := hiveTPCDS(tiny)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, rep, len(data.TPCDSQueries))
	// Tez should win on the large majority of queries.
	wins := 0
	for i := range rep.Rows {
		if cell(t, rep, i, 3) > 1.0 {
			wins++
		}
	}
	if wins < len(rep.Rows)-1 {
		t.Fatalf("Tez won only %d/%d TPC-DS queries:\n%s", wins, len(rep.Rows), rep)
	}
}

func TestHiveTPCHReport(t *testing.T) {
	rep, err := hiveTPCH(tiny)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, rep, len(data.TPCHQueries))
	wins := 0
	for i := range rep.Rows {
		if cell(t, rep, i, 3) > 1.0 {
			wins++
		}
	}
	if wins < len(rep.Rows)-1 {
		t.Fatalf("Tez won only %d/%d TPC-H queries:\n%s", wins, len(rep.Rows), rep)
	}
}

func TestPigProductionReport(t *testing.T) {
	rep, err := pigProduction(tiny)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, rep, len(pigWorkloads))
}

// TestKMeansReport requires the shared session to beat per-iteration AMs
// on the medians of seven reports, each of which times the two modes one
// after the other: one pair of shots is at the mercy of a busy machine.
func TestKMeansReport(t *testing.T) {
	const reps = 7
	var iso, sess []float64
	for range reps {
		rep, err := kMeansIterations(tiny)
		if err != nil {
			t.Fatal(err)
		}
		requireRows(t, rep, 1)
		iso, sess = append(iso, cell(t, rep, 0, 1)), append(sess, cell(t, rep, 0, 2))
	}
	slices.Sort(iso)
	slices.Sort(sess)
	if iso[reps/2] <= sess[reps/2] {
		t.Fatalf("session mode did not win: median %.1f ms against per-job AMs' %.1f ms\nper-job AMs: %v\nsession:     %v",
			sess[reps/2], iso[reps/2], iso, sess)
	}
}

func TestSparkReports(t *testing.T) {
	tl, err := sparkTimelines(tiny)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, tl, 4)
	lat, err := sparkLatency(tiny)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, lat, 1)
}

// TestExperimentsSmoke ranges over the table: keys are unique, and every
// row returns a report at tiny scale that is non-empty, rectangular and
// renders. The opt-in rows (sized down at tiny) are skipped under -short.
func TestExperimentsSmoke(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if e.Key == "" || seen[e.Key] {
			t.Fatalf("experiment key %q is empty or registered twice", e.Key)
		}
		seen[e.Key] = true
		if e.OptIn && testing.Short() {
			continue
		}
		rep, err := e.Run(tiny)
		if err != nil {
			t.Fatalf("%s: %v", e.Key, err)
		}
		requireRows(t, rep, 1)
		for _, row := range rep.Rows {
			if len(row) != len(rep.Headers) {
				t.Errorf("%s: row %q has %d cells under %d headers", e.Key, row, len(row), len(rep.Headers))
			}
		}
	}
}

func TestSelect(t *testing.T) {
	var all, ablations []string
	for _, e := range Experiments {
		if !e.OptIn {
			all = append(all, e.Key)
		}
		if e.Group == "ablations" {
			ablations = append(ablations, e.Key)
		}
	}
	if len(ablations) != 9 {
		t.Fatalf("ablations group has %d rows, want 9", len(ablations))
	}
	cases := []struct {
		spec string
		want []string // nil: an error naming the valid keys
	}{
		{"all", all},
		{"ablations", ablations},
		{"controlplane", []string{"controlplane"}},
		{" Graph ,f11,f8", []string{"f8", "f11", "graph"}},
		{"f8,all,f8,chaos", all},
		{"f8,relop", nil},
		{"", nil},
	}
	for _, c := range cases {
		got, err := Select(c.spec)
		if c.want == nil {
			if err == nil || !strings.Contains(err.Error(), "valid: all, f8,") || !strings.Contains(err.Error(), "ablations") {
				t.Errorf("Select(%q) = %v, want an error listing the valid keys", c.spec, err)
			}
			continue
		}
		var keys []string
		for _, e := range got {
			keys = append(keys, e.Key)
		}
		if err != nil || !reflect.DeepEqual(keys, c.want) {
			t.Errorf("Select(%q) = %v, %v; want %v", c.spec, keys, err, c.want)
		}
	}
}

// TestDivergedRowFails: an experiment that compares answers must fail when
// its own table says one diverged, and name the row.
func TestDivergedRowFails(t *testing.T) {
	rep := &Report{Title: "T", Headers: []string{"scenario", "result"}}
	rep.AddRow("fault-free", "baseline")
	rep.AddRow("dfs-read", "identical")
	if err := divergedErr(rep); err != nil {
		t.Fatalf("clean report: %v", err)
	}
	rep.AddRow("node-crash", "DIVERGED")
	if err := divergedErr(rep); err == nil || !strings.Contains(err.Error(), "node-crash") || strings.Contains(err.Error(), "dfs-read") {
		t.Fatalf("diverged report: err = %v, want one naming node-crash only", err)
	}
}

// TestShuffleCodecAblation is the end-to-end codec acceptance: flate must
// round-trip byte-identically through Register→Fetch→merge on wordcount,
// Hive and Pig workloads while moving fewer wire bytes than raw.
func TestShuffleCodecAblation(t *testing.T) {
	rep, err := ablationShuffleCodec(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rep.Rows))
	}
	for i, row := range rep.Rows {
		workload, codec := row[0], row[1]
		wire, raw := cell(t, rep, i, 3), cell(t, rep, i, 4)
		if row[6] != "identical" {
			t.Errorf("%s under %s diverged from codec=none", workload, codec)
		}
		if raw <= 0 {
			t.Errorf("%s under %s: no raw shuffle bytes recorded", workload, codec)
		}
		switch codec {
		case "none":
			if wire != raw {
				t.Errorf("%s: codec=none wire %.0f != raw %.0f", workload, wire, raw)
			}
		case "flate":
			if wire >= raw {
				t.Errorf("%s: flate wire %.0f not below raw %.0f", workload, wire, raw)
			}
		}
	}
}

// q1Golden and q18Golden are the digests of q1's and q18's part files at
// the tiny scale, seed 33.
const (
	q1Golden  = "d56a3cc572a67a299a3974ad37f0ceee177ca20ddcdcd75acc1df20d33f1b86c"
	q18Golden = "cb243c6d546cf7119f1d92976717bc89b4bb527617700d1bc3ce231921ca34e7"
)

// TestRelationalGoldenDigests is the end-to-end referee of the relational
// executor: six plans must commit part files whose digest equals the one
// the row engine produced at the last commit that had one (recorded there
// with DisableVectorized + RelopBatchSize -1, equal to the batch engine's,
// stable over 20 runs). q1, q18 and group_agg are the plans the retired
// row-vs-columnar ablation compared; order_by, skew_join and q55 are the
// three shipped plans whose sampled, vm and initializer emits used to run
// on the row engine. Auto-parallelism is off so the part-file layout does
// not follow timing. q1 and q55 sum and average floats: their digests were
// re-recorded when float sums became exact, and their committed rows must
// equal the math/big reference's (exactAgg) bit for bit.
func TestRelationalGoldenDigests(t *testing.T) {
	plat := platform.New(platform.Default(8))
	defer plat.Stop()
	testutil.FsckAtEnd(t, plat.FS)
	tp, err := data.GenTPCH(plat.FS, tiny.TPCHOrders, 33)
	if err != nil {
		t.Fatal(err)
	}
	td, err := data.GenTPCDS(plat.FS, tiny.TPCDSSales, 8)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := data.GenZipfPairs(plat.FS, "etl_a", tiny.PigRows, 200, 1.3, 10)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := data.GenUniquePairs(plat.FS, "etl_b", 200, 11)
	if err != nil {
		t.Fatal(err)
	}
	exec := relop.Config{DefaultPartitions: 8}
	hiveRun := func(sql string, tables []*relop.Table) func(*am.Session, string) error {
		return func(sess *am.Session, out string) error {
			eng := hive.NewEngine()
			eng.Exec = exec
			eng.Register(tables...)
			_, err := eng.RunTez(sess, path.Base(out), sql, out)
			return err
		}
	}
	pigRun := func(w pigWorkload) func(*am.Session, string) error {
		return func(sess *am.Session, out string) error {
			s := w.build(t1, t2, out)
			s.Exec = exec
			_, err := s.RunTez(sess)
			return err
		}
	}
	// The reference reads the rows q1 and q55 aggregate through the engine
	// (scan, filter, joins) and aggregates them in plain Go.
	reference := func(sql string, tables []*relop.Table, gw int, funcs []string,
		order func(a, b row.Row) int, limit int) func(*am.Session) ([]row.Row, error) {
		return func(sess *am.Session) ([]row.Row, error) {
			out := "/golden-ref/" + strconv.Itoa(len(funcs)) + "-" + strconv.Itoa(gw)
			if err := hiveRun(sql, tables)(sess, out); err != nil {
				return nil, err
			}
			rows, err := relop.ReadStored(plat.FS, out)
			if err != nil {
				return nil, err
			}
			res := exactAgg(rows, gw, funcs)
			slices.SortFunc(res, order)
			return res[:min(len(res), limit)], nil
		}
	}
	cases := []struct {
		name   string
		run    func(*am.Session, string) error
		golden string
		ref    func(*am.Session) ([]row.Row, error)
	}{
		{"hive-tpch-q1", hiveRun(data.TPCHQueries[0].SQL, tp.Tables()), q1Golden,
			reference(`SELECT l_returnflag, l_linestatus, l_quantity, l_extendedprice, l_discount, 1
				FROM lineitem WHERE l_shipdate <= 19980902`, tp.Tables(), 2, []string{"sum", "sum", "avg", "count"},
				func(a, b row.Row) int { return slices.CompareFunc(a[:2], b[:2], row.Compare) }, 100)},
		{"hive-tpch-q18", hiveRun(data.TPCHQueries[4].SQL, tp.Tables()), q18Golden, nil},
		{"hive-tpcds-q55", hiveRun(data.TPCDSQueries[0].SQL, td.Tables()),
			"b0077eb2395839670776ac8f4c4abcc32854ec5b226786d596aedc18acf1506c",
			reference(`SELECT i.i_brand_id, ss.ss_sales_price
				FROM store_sales_p ss
				JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk
				JOIN item i ON ss.ss_item_sk = i.i_item_sk
				WHERE d.d_moy = 11 AND d.d_year = 1998`, td.Tables(), 1, []string{"sum"},
				func(a, b row.Row) int { // rev DESC, then the row's bytes
					if c := row.Compare(b[1], a[1]); c != 0 {
						return c
					}
					return bytes.Compare(row.Encode(nil, a), row.Encode(nil, b))
				}, 10)},
		{"pig-group_agg", pigRun(pigWorkloads[0]),
			"03272a09fe3e5088936538d983d9bcf10f69ba55d6ab64d7ec80cfb96344c481", nil},
		{"pig-order_by", pigRun(pigWorkloads[4]),
			"b778ec81f270e3e31ca5904ba70042fa27866be7a7938484933e93811144efcb", nil},
		{"pig-skew_join", pigRun(pigWorkloads[5]),
			"d9aff837c03ca0aec76efe02973b87263f612fe89f1f91ce473a641a763fe5d0", nil},
	}
	for _, c := range cases {
		sess := am.NewSession(plat, am.Config{Name: "golden-" + c.name, DisableAutoParallelism: true})
		out := "/golden/" + c.name
		err := c.run(sess, out)
		sess.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := testutil.PartsDigest(t, plat.FS, out); got != c.golden {
			t.Errorf("%s: committed bytes differ from the row engine's: digest %s, want %s", c.name, got, c.golden)
		}
		if c.ref == nil {
			continue
		}
		sess = am.NewSession(plat, am.Config{Name: "golden-ref-" + c.name})
		want, err := c.ref(sess)
		sess.Close()
		if err != nil {
			t.Fatalf("%s reference: %v", c.name, err)
		}
		got, err := relop.ReadStored(plat.FS, out)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !slices.EqualFunc(got, want, func(a, b row.Row) bool {
			return bytes.Equal(row.Encode(nil, a), row.Encode(nil, b))
		}) {
			t.Errorf("%s: committed rows differ from the math/big reference's:\n%v\nwant\n%v", c.name, got, want)
		}
	}
}

// TestQ1IgnoresLineitemOrder: data.GenTPCH writes lineitem in order-key
// order, the favourable case for pre-aggregation (each scan task's rows
// are nearly disjoint). q1 over a row-shuffled copy of lineitem must
// commit what it commits over the original — TestRelationalGoldenDigests'
// q1 digest, the math/big reference's rows — on Tez and on the MR chain.
func TestQ1IgnoresLineitemOrder(t *testing.T) {
	ignoresRowOrder(t, "q1", data.TPCHQueries[0].SQL, q1Golden)
}

// TestQ18IgnoresLineitemOrder: q18's fused join aggregate writes its
// groups to the limited shuffle into its sort unsorted, in the order its
// build side (orders) first names them, since nothing downstream observes
// that order (relop's observesOrder). Over row-shuffled copies of orders
// and lineitem, whose originals are in order-key order, it must still
// commit TestRelationalGoldenDigests' q18 digest, on Tez and on the MR
// chain: arrival order must not leak into the output.
func TestQ18IgnoresLineitemOrder(t *testing.T) {
	ignoresRowOrder(t, "q18", data.TPCHQueries[4].SQL, q18Golden)
}

// ignoresRowOrder runs sql over the tiny TPC-H tables, every table's
// rows shuffled, on Tez and on the MR chain, and fails unless Tez commits
// the part-file digest golden and MR the same rows.
func ignoresRowOrder(t *testing.T, name, sql, golden string) {
	src := platform.New(platform.Default(8))
	defer src.Stop()
	tp, err := data.GenTPCH(src.FS, tiny.TPCHOrders, 33)
	if err != nil {
		t.Fatal(err)
	}
	plat := platform.New(platform.Default(8))
	defer plat.Stop()
	eng := hive.NewEngine()
	eng.Exec = relop.Config{DefaultPartitions: 8}
	for _, tb := range tp.Tables() {
		var rows []row.Row
		for _, f := range tb.Files {
			blob, err := src.FS.ReadFile(f, "")
			if err != nil {
				t.Fatal(err)
			}
			rs := col.NewStripeRows(library.NewPaddedReader(blob))
			for rs.Next() {
				rows = append(rows, rs.Batch().MaterializeRow(rs.Row()))
			}
			if err := rs.Err(); err != nil {
				t.Fatal(err)
			}
		}
		rand.New(rand.NewSource(5)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		cp := &relop.Table{Name: tb.Name, Schema: tb.Schema}
		if err := relop.WriteTable(plat.FS, cp, len(tb.Files), rows); err != nil {
			t.Fatal(err)
		}
		eng.Register(cp)
	}
	sess := am.NewSession(plat, am.Config{Name: name + "-shuffled", DisableAutoParallelism: true})
	defer sess.Close()
	tezOut, mrOut := "/"+name+"/tez", "/"+name+"/mr"
	if _, err := eng.RunTez(sess, name+"-tez", sql, tezOut); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunMR(plat, am.Config{Name: name + "-mr"}, name+"-mr", sql, mrOut); err != nil {
		t.Fatal(err)
	}
	if got := testutil.PartsDigest(t, plat.FS, tezOut); got != golden {
		t.Errorf("%s on Tez over shuffled tables: digest %s, want %s", name, got, golden)
	}
	tez, err := relop.ReadStored(plat.FS, tezOut)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := relop.ReadStored(plat.FS, mrOut)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(tez, mr, func(a, b row.Row) bool { return bytes.Equal(row.Encode(nil, a), row.Encode(nil, b)) }) {
		t.Errorf("%s over shuffled tables: MR %v, Tez %v", name, mr, tez)
	}
}

// exactAgg is the math/big reference for a group-by over rows laid out
// [group..., args...] with no nulls: per group of equal key bytes, in
// order of first appearance, its key columns and, for args[i], funcs[i] —
// count its rows, sum the exact rational sum of its ints and floats and
// avg that divided by the count, each rounded once to the nearest float64
// (big.Rat.Float64).
func exactAgg(rows []row.Row, gw int, funcs []string) []row.Row {
	type group struct {
		key  row.Row
		n    int64
		sums []*big.Rat
	}
	groups := map[string]*group{}
	var order []*group
	for _, r := range rows {
		k := string(row.EncodeKey(nil, r[:gw]...))
		g := groups[k]
		if g == nil {
			g = &group{key: r[:gw]}
			for range funcs {
				g.sums = append(g.sums, new(big.Rat))
			}
			groups[k] = g
			order = append(order, g)
		}
		g.n++
		for i, v := range r[gw:] {
			if v.Kind == row.KindInt {
				g.sums[i].Add(g.sums[i], new(big.Rat).SetInt64(v.Int))
			} else {
				g.sums[i].Add(g.sums[i], new(big.Rat).SetFloat64(v.Float))
			}
		}
	}
	var out []row.Row
	for _, g := range order {
		r := append(row.Row{}, g.key...)
		for i, fn := range funcs {
			switch fn {
			case "count":
				r = append(r, row.Int(g.n))
			case "sum":
				f, _ := g.sums[i].Float64()
				r = append(r, row.Float(f))
			case "avg":
				f, _ := new(big.Rat).Quo(g.sums[i], new(big.Rat).SetInt64(g.n)).Float64()
				r = append(r, row.Float(f))
			}
		}
		out = append(out, r)
	}
	return out
}

func TestReportRendering(t *testing.T) {
	r := &Report{Figure: "F", Title: "T", Headers: []string{"a", "bb"}}
	r.AddRow("x", "y")
	r.Notes = []string{"n"}
	s := r.String()
	for _, want := range []string{"F", "T", "a", "bb", "x", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
	if ms(1500*time.Microsecond) != "1.5" {
		t.Fatal("ms formatting")
	}
	if speedup(2*time.Second, time.Second) != "2.00x" {
		t.Fatal("speedup formatting")
	}
}

func TestChaosRobustnessReport(t *testing.T) {
	rep, err := chaosRobustness(tiny)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, rep, 8) // baseline + 7 scenarios
	for _, row := range rep.Rows[1:] {
		if row[2] != "identical" {
			t.Fatalf("scenario %s diverged from the fault-free run:\n%s", row[0], rep)
		}
	}
}

// TestChaosNodeCrashRecoversPromptly: the chaos table's node-crash row
// (seed 104, the table's 3000 lines) recovers from its crash by events,
// not by luck — thirty runs each finish inside a bound a hundred times
// their usual ≈15 ms and match the fault-free answer. Before the
// scheduler stopped reusing stopped containers, about one run in six
// under load spent 12–37 s handing a task the dead node's container.
func TestChaosNodeCrashRecoversPromptly(t *testing.T) {
	const runs, lines, bound = 30, 3000, 2 * time.Second
	var s chaosScenario
	for _, c := range chaosScenarios() {
		if c.name == "node-crash" {
			s = c
		}
	}
	clean, err := runChaosWordcount(lines, nil, s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var observed int64
	for i := 0; i < runs; i++ {
		run, err := runChaosWordcount(lines, chaos.New(s.seed, s.spec), s.cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if run.dur > bound {
			t.Fatalf("run %d took %v, bound %v", i, run.dur, bound)
		}
		if !reflect.DeepEqual(run.counts, clean.counts) {
			t.Fatalf("run %d diverged from the fault-free answer", i)
		}
		observed += run.res.Counters.Get("NODE_FAILURES_OBSERVED")
	}
	if observed == 0 {
		t.Fatal("no run saw its node crash")
	}
}

// TestSameAnswer: the Tez-vs-MR check of Figures 8–10 accepts the same
// rows in another order and part layout, and refuses rows that differ in
// one value, naming the Tez output.
func TestSameAnswer(t *testing.T) {
	plat := platform.New(platform.Fast(1))
	defer plat.Stop()
	store := func(path string, rows ...row.Row) {
		for i, r := range rows {
			w, err := library.CreateRecordFile(plat.FS, fmt.Sprintf("%s/part-%05d", path, i), plat.FS.LiveNodes()[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Write(nil, row.Encode(nil, r)); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := row.Row{row.String("a"), row.Int(1)}, row.Row{row.String("b"), row.Float(2)}
	store("/mr", a, b)
	store("/tez", b, a)
	store("/tez-diff", row.Row{row.String("a"), row.Int(3)}, b)
	if err := sameAnswer(plat.FS, "/mr", "/tez"); err != nil {
		t.Fatalf("same rows refused: %v", err)
	}
	if err := sameAnswer(plat.FS, "/mr", "/tez-diff"); err == nil || !strings.Contains(err.Error(), "/tez-diff") {
		t.Fatalf("differing rows: err = %v, want one naming /tez-diff", err)
	}
}

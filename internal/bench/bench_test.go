package bench

import (
	"crypto/sha256"
	"fmt"
	"path"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"tez/internal/am"
	"tez/internal/chaos"
	"tez/internal/data"
	"tez/internal/hive"
	"tez/internal/platform"
	"tez/internal/relop"
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
	rep, err := HiveTPCDS(tiny)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, rep, len(tpcdsQueries))
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
	rep, err := HiveTPCH(tiny)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, rep, len(tpchQueries))
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
	rep, err := PigProduction(tiny)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, rep, len(pigWorkloads))
}

func TestKMeansReport(t *testing.T) {
	rep, err := KMeansIterations(tiny)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, rep, 1)
	// The shared session must beat per-iteration AMs.
	if cell(t, rep, 0, 3) <= 1.0 {
		t.Fatalf("session mode did not win:\n%s", rep)
	}
}

func TestSparkReports(t *testing.T) {
	tl, err := SparkTimelines(tiny)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, tl, 4)
	lat, err := SparkLatency(tiny)
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
	rep, err := AblationShuffleCodec(tiny)
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

// TestRelationalGoldenDigests is the end-to-end referee of the relational
// executor: six plans must commit part files whose digest equals the one
// the row engine produced at the last commit that had one (recorded there
// with DisableVectorized + RelopBatchSize -1, equal to the batch engine's,
// stable over 20 runs). q1, q18 and group_agg are the plans the retired
// row-vs-columnar ablation compared; order_by, skew_join and q55 are the
// three shipped plans whose sampled, vm and initializer emits used to run
// on the row engine. Auto-parallelism is off so the part-file layout does
// not follow timing.
func TestRelationalGoldenDigests(t *testing.T) {
	plat := platform.New(platform.Default(8))
	defer plat.Stop()
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
	cases := []struct {
		name   string
		run    func(*am.Session, string) error
		golden string
	}{
		{"hive-tpch-q1", hiveRun(tpchQueries[0].sql, tp.Tables()),
			"12a0f4840f489019e26736e9b7c9559068a4046406c288bd43baef10fa1d49ac"},
		{"hive-tpch-q18", hiveRun(tpchQueries[4].sql, tp.Tables()),
			"cb243c6d546cf7119f1d92976717bc89b4bb527617700d1bc3ce231921ca34e7"},
		{"hive-tpcds-q55", hiveRun(tpcdsQueries[0].sql, td.Tables()),
			"679f5c79155c42f731afae60359611931dcd7247374e3097e06d416e941b24bf"},
		{"pig-group_agg", pigRun(pigWorkloads[0]),
			"03272a09fe3e5088936538d983d9bcf10f69ba55d6ab64d7ec80cfb96344c481"},
		{"pig-order_by", pigRun(pigWorkloads[4]),
			"b778ec81f270e3e31ca5904ba70042fa27866be7a7938484933e93811144efcb"},
		{"pig-skew_join", pigRun(pigWorkloads[5]),
			"d9aff837c03ca0aec76efe02973b87263f612fe89f1f91ce473a641a763fe5d0"},
	}
	for _, c := range cases {
		sess := am.NewSession(plat, am.Config{Name: "golden-" + c.name, DisableAutoParallelism: true})
		out := "/golden/" + c.name
		err := c.run(sess, out)
		sess.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		files := plat.FS.List(out + "/part-")
		sort.Strings(files)
		if len(files) == 0 {
			t.Fatalf("%s: no part files under %s", c.name, out)
		}
		digest := sha256.New()
		for _, f := range files {
			blob, err := plat.FS.ReadFile(f, "")
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(digest, "%s %d\n", path.Base(f), len(blob))
			digest.Write(blob)
		}
		if got := fmt.Sprintf("%x", digest.Sum(nil)); got != c.golden {
			t.Errorf("%s: committed bytes differ from the row engine's: digest %s, want %s", c.name, got, c.golden)
		}
	}
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
	rep, err := ChaosRobustness(tiny)
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

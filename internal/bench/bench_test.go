package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"
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

func TestAblationSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	reps, err := Ablations(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 9 {
		t.Fatalf("ablations = %d", len(reps))
	}
	for _, r := range reps {
		requireRows(t, r, 2)
	}
}

// TestShuffleSortAblation is the arena acceptance gate: the pointer sort
// must at least halve allocations per record and not be slower than the
// boxed baseline it replaced.
func TestShuffleSortAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := ShuffleSortResults(tiny)
	if err != nil {
		t.Fatal(err)
	}
	byVariant := map[string]ShuffleBenchResult{}
	for _, r := range rows {
		byVariant[r.Variant] = r
	}
	boxed, arena := byVariant["serial-boxed"], byVariant["arena"]
	if boxed.Records == 0 || arena.Records == 0 {
		t.Fatalf("missing variants in %+v", rows)
	}
	if arena.AllocsPerRecord*2 > boxed.AllocsPerRecord {
		t.Fatalf("arena allocs/record %.3f not ≥2x better than boxed %.3f",
			arena.AllocsPerRecord, boxed.AllocsPerRecord)
	}
	if arena.NsPerOp >= boxed.NsPerOp {
		t.Fatalf("arena ns/op %d not below boxed %d", arena.NsPerOp, boxed.NsPerOp)
	}
	rep, err := AblationShuffleSort(tiny)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, rep, 4)
}

// TestShuffleCodecAblation is the end-to-end codec acceptance: flate must
// round-trip byte-identically through Register→Fetch→merge on wordcount,
// Hive and Pig workloads while moving fewer wire bytes than raw.
func TestShuffleCodecAblation(t *testing.T) {
	rows, err := ShuffleCodecResults(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("%s under %s diverged from codec=none", r.Workload, r.Codec)
		}
		if r.BytesRaw <= 0 {
			t.Errorf("%s under %s: no raw shuffle bytes recorded", r.Workload, r.Codec)
		}
		switch r.Codec {
		case "none":
			if r.BytesWire != r.BytesRaw {
				t.Errorf("%s: codec=none wire %d != raw %d", r.Workload, r.BytesWire, r.BytesRaw)
			}
		case "flate":
			if r.BytesWire >= r.BytesRaw {
				t.Errorf("%s: flate wire %d not below raw %d", r.Workload, r.BytesWire, r.BytesRaw)
			}
		}
	}
}

// TestRelopVectorizationAblation is the columnar acceptance gate: every
// kernel must beat its row-at-a-time twin (with at least 2x fewer
// allocations on the scan-shaped kernels), and all three end-to-end
// engine variants must commit byte-identical output.
func TestRelopVectorizationAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	micro, err := RelopMicroResults(tiny)
	if err != nil {
		t.Fatal(err)
	}
	byKernel := map[string]map[string]RelopMicroResult{}
	for _, r := range micro {
		if byKernel[r.Kernel] == nil {
			byKernel[r.Kernel] = map[string]RelopMicroResult{}
		}
		byKernel[r.Kernel][r.Variant] = r
	}
	for _, kernel := range []string{"filter", "project", "hashjoin", "aggregate"} {
		rowRes, colRes := byKernel[kernel]["row"], byKernel[kernel]["columnar"]
		if rowRes.Records == 0 || colRes.Records == 0 {
			t.Fatalf("missing variants for %s in %+v", kernel, micro)
		}
		if colRes.NsPerOp >= rowRes.NsPerOp {
			t.Errorf("%s: columnar ns/op %d not below row %d", kernel, colRes.NsPerOp, rowRes.NsPerOp)
		}
		if kernel != "hashjoin" && colRes.AllocsPerOp*2 > rowRes.AllocsPerOp {
			t.Errorf("%s: columnar allocs/op %d not ≥2x better than row %d",
				kernel, colRes.AllocsPerOp, rowRes.AllocsPerOp)
		}
	}
	requireRows(t, RelopMicroReport(micro), 8)

	e2e, err := RelopE2EResults(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(e2e) != 9 {
		t.Fatalf("e2e rows = %d, want 9", len(e2e))
	}
	for _, r := range e2e {
		if !r.Identical {
			t.Errorf("%s under %s diverged from the row engine", r.Workload, r.Variant)
		}
	}
	requireRows(t, RelopE2EReport(e2e), 9)
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

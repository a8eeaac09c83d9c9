package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"tez/internal/timeline"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The catalogue in catalog.go and BENCHMARK.json are two copies of one
// list; this is what keeps them one.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json is not beside this directory:", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(doc.EndToEnd), len(endToEnd), len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(name, unit, better string, def metricDef) {
		if name != def.name || unit != def.unit || better != def.better {
			t.Errorf("BENCHMARK.json has %s/%s/%s where the program has %s/%s/%s", name, unit, better, def.name, def.unit, def.better)
		}
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("metric %q is listed twice", name)
		}
		seen[name] = true
	}
	for i, m := range doc.EndToEnd {
		check(m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for i, m := range doc.PerLayer {
		check(m.Name, m.Unit, m.Better, perLayer[i])
	}
}

// Noisy differences of two medians: the only per-layer metrics that may
// come out below zero.
var mayBeNegative = map[string]bool{"bench.trace_overhead_pct": true, "bench.modelled_wall_pct": true}

func checkLine(t *testing.T, o *outcome, defs []metricDef) {
	t.Helper()
	if !o.correct || o.failed != 0 || o.attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", o.correct, o.attempted, o.failed)
	}
	line := o.line()
	if len(line.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d in the catalogue", len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s was not emitted", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("%s: unit %q, want %q", d.name, m.Unit, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (m.Value < 0 && !mayBeNegative[d.name]) {
			t.Errorf("%s = %v", d.name, m.Value)
		}
	}
	if _, err := json.Marshal(line); err != nil {
		t.Error(err)
	}
}

// Every workload at toy scale: both kinds of run pass their output
// checks and print exactly the catalogue.
func TestWorkloadsAtToyScale(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o, err := runUntraced(w, 1, 30*time.Millisecond, toy)
			if err != nil {
				t.Fatal(err)
			}
			checkLine(t, o, endToEnd)
			for _, d := range endToEnd {
				if o.values[d.name] <= 0 {
					t.Errorf("%s = %v; a gated metric is never 0", d.name, o.values[d.name])
				}
			}

			dir := t.TempDir()
			o, err = runTraced(w, 1, 90*time.Millisecond, toy, dir)
			if err != nil {
				t.Fatal(err)
			}
			checkLine(t, o, perLayer)
			if o.values["bench.jobs_traced"] < 1 || o.values["am.tasks"] < 1 || o.values["am.run_ms"] <= 0 {
				t.Errorf("traced %v jobs, %v tasks, run %v ms", o.values["bench.jobs_traced"], o.values["am.tasks"], o.values["am.run_ms"])
			}
			checkSpans(t, filepath.Join(dir, w.name+".spans.jsonl"))
			trace, err := os.ReadFile(filepath.Join(dir, w.name+".trace.json"))
			if err != nil || !json.Valid(trace) {
				t.Errorf("Chrome trace: %v, valid JSON %v", err, json.Valid(trace))
			}
		})
	}
}

// checkSpans: every span closed, inside its parent, and each job has the
// call into the program under it.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	names := map[string]int{}
	for i, s := range spans {
		// probe.<layer>.<fn> counts under probe.<layer>.
		group := s.Name
		if parts := strings.SplitN(s.Name, ".", 3); len(parts) == 3 {
			group = parts[0] + "." + parts[1]
		}
		names[group]++
		if s.ID != i || s.EndNS < s.StartNS {
			t.Errorf("span %d %s: id %d, %d..%d", i, s.Name, s.ID, s.StartNS, s.EndNS)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.StartNS < p.StartNS || s.EndNS > p.EndNS || s.Job != p.Job {
				t.Errorf("span %s [%d,%d] job %d escapes parent %s [%d,%d] job %d", s.Name, s.StartNS, s.EndNS, s.Job, p.Name, p.StartNS, p.EndNS, p.Job)
			}
		}
	}
	for _, want := range []string{"setup.platform", "setup.data", "setup.session", "job", "job.verify", "probe.library", "probe.cluster"} {
		if names[want] == 0 {
			t.Errorf("no %q span among %v", want, names)
		}
	}
	if names["job.run"] == 0 && names["svc.submit"] == 0 {
		t.Errorf("no span around the call that runs a job: %v", names)
	}
}

// The critical-path segments tile the AM's view of a job exactly, and
// that view lies inside the wall-clock the benchmark saw from outside.
func TestCriticalPathTilesJobWall(t *testing.T) {
	journal := timeline.New()
	inst, err := setupWordcount(&env{seed: 3, size: toy, journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	ph := inst.measure(0)
	inst.close()
	st, err := analyseJournal(journal.Events(), ph.start)
	if err != nil {
		t.Fatal(err)
	}
	if st.dags != len(ph.rawWallMs) {
		t.Fatalf("journal has %d complete runs, the benchmark measured %d jobs", st.dags, len(ph.rawWallMs))
	}
	sum := st.startupMs + st.runMs + st.waitMs + st.finishMs
	if math.Abs(sum-st.wallMs) > 1e-6*st.wallMs {
		t.Errorf("segments sum to %v ms, DAG wall is %v ms", sum, st.wallMs)
	}
	if outside := midMean(ph.rawWallMs); st.wallMs > outside {
		t.Errorf("AM wall %v ms exceeds the job wall seen from outside, %v ms", st.wallMs, outside)
	}
}

// The counts the README says repeat exactly for a seed do.
func TestExactCountsRepeatForASeed(t *testing.T) {
	exact := []string{"shuffle.bytes_raw", "library.spills", "library.records_shuffled", "relop.rows_emitted"}
	for _, name := range []string{"wordcount-spill", "hive-joinagg"} {
		w, _ := findWorkload(name)
		var runs [2]*outcome
		for i := range runs {
			o, err := runTraced(w, 7, 60*time.Millisecond, toy, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = o
		}
		for _, m := range exact {
			if a, b := runs[0].values[m], runs[1].values[m]; a != b {
				t.Errorf("%s %s: %v then %v for the same seed", name, m, a, b)
			}
		}
		if runs[0].values["shuffle.bytes_raw"] == 0 {
			t.Errorf("%s moved no shuffle bytes", name)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[
		{"name":"job_wall_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"job_cpu_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, walls, cpus []float64, failed int) string {
		path := filepath.Join(dir, name)
		for i := range walls {
			o := &outcome{workload: "hive-scanagg", seed: int64(i), correct: failed == 0, attempted: 100, failed: failed,
				values: map[string]float64{"job_wall_ms": walls[i], "job_cpu_ms": cpus[i]}}
			if err := appendRecord(path, o); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 102}
	base := write("base.jsonl", steady, steady, 0)
	same := write("same.jsonl", []float64{103, 101, 102, 100, 104}, steady, 0)
	slow := write("slow.jsonl", []float64{120, 121, 119, 122, 120}, steady, 0)
	noisy := write("noisy.jsonl", []float64{100, 140, 90, 160, 120}, steady, 0)
	failing := write("failing.jsonl", steady, steady, 1)

	for _, tc := range []struct {
		newer     string
		regressed bool
		says      string
	}{
		{same, false, "ok"},
		{slow, true, "REGRESSION"},
		{noisy, false, "unresolved"},
		{failing, true, "REGRESSION"},
	} {
		var buf bytes.Buffer
		regressed, err := compareFiles(&buf, bench, base, tc.newer)
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !strings.Contains(buf.String(), tc.says) {
			t.Errorf("%s: regressed=%v, want %v and %q in:\n%s", filepath.Base(tc.newer), regressed, tc.regressed, tc.says, buf.String())
		}
	}
}

package timeline_test

// End-to-end tests of the timeline subsystem against real DAG runs:
// fixed-seed chaos determinism pinned by a golden file, Chrome trace
// validity, critical-path agreement with the measured wall-clock, and
// journal coherence across an AM crash + recovery.

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tez/internal/am"
	"tez/internal/chaos"
	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/runtime"
	"tez/internal/timeline"
)

var update = flag.Bool("update", false, "rewrite golden files")

func init() {
	library.RegisterMapFunc("tltest.tokenize", func(_, line []byte, out runtime.KVWriter) error {
		for _, w := range strings.Fields(string(line)) {
			if err := out.Write([]byte(w), []byte("1")); err != nil {
				return err
			}
		}
		return nil
	})
	library.RegisterReduceFunc("tltest.sum", func(k []byte, vs [][]byte, out runtime.KVWriter) error {
		return out.Write(k, []byte(strconv.Itoa(len(vs))))
	})
}

func writeLines(t *testing.T, plat *platform.Platform, path string, lines []string) {
	t.Helper()
	wr, err := library.CreateRecordFile(plat.FS, path, plat.FS.LiveNodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if err := wr.Write(nil, []byte(l)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
}

func wordCountDAG(name, in, out string, reducers int) *dag.DAG {
	d := dag.New(name)
	tok := d.AddVertex("tokenizer", plugin.Desc(library.MapProcessorName, library.FuncConfig{Func: "tltest.tokenize"}), -1)
	tok.Sources = []dag.DataSource{library.DFSSource("lines", []string{in}, 512)}
	sum := d.AddVertex("summation", plugin.Desc(library.ReduceProcessorName, library.FuncConfig{Func: "tltest.sum"}), reducers)
	sum.Sinks = []dag.DataSink{library.DFSSink("counts", out)}
	d.Connect(tok, sum, library.OrderedEdge(library.OrderedPartitionedConfig{}))
	return d
}

// chaosRun executes one fixed-seed wordcount under fetch-fault injection
// with the journal attached to every layer, returning the journal.
func chaosRun(t *testing.T, seed int64) *timeline.Journal {
	t.Helper()
	j := timeline.New()
	plane := chaos.New(seed, chaos.Spec{TransientFetchProb: 0.3, FetchDataLostProb: 0.05})
	pcfg := platform.Fast(4)
	pcfg.Chaos = plane
	pcfg.Timeline = j
	plat := platform.New(pcfg)
	defer plat.Stop()

	var lines []string
	for i := 0; i < 40; i++ {
		lines = append(lines, "pad pad pad alpha beta gamma delta epsilon zeta eta theta")
	}
	writeLines(t, plat, "/in/golden", lines)

	// Auto-parallelism reacts to data volumes, which fault-induced retries
	// can perturb; the structural skeleton is only seed-stable without it.
	sess := am.NewSession(plat, am.Config{
		Name:                   "golden",
		DisableAutoParallelism: true,
		Timeline:               j,
		Chaos:                  plane,
	})
	defer sess.Close()
	res, err := sess.Run(wordCountDAG("wc", "/in/golden", "/out/golden", 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != am.DAGSucceeded {
		t.Fatalf("run status = %v", res.Status)
	}
	return j
}

// TestChaosDeterminismGolden runs the same seeded chaos workload twice and
// requires the canonical event skeleton to be identical across runs and to
// match the checked-in golden file (regenerate with -update).
func TestChaosDeterminismGolden(t *testing.T) {
	j1 := chaosRun(t, 7)
	dag1 := timeline.LastDAG(j1.Events())
	c1 := timeline.Canonical(j1.Events(), dag1)

	j2 := chaosRun(t, 7)
	c2 := timeline.Canonical(j2.Events(), timeline.LastDAG(j2.Events()))
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("same seed produced different canonical sequences:\nrun1: %q\nrun2: %q", c1, c2)
	}

	golden := filepath.Join("testdata", "golden_chaos.txt")
	got := strings.Join(c1, "\n") + "\n"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("canonical skeleton drifted from golden file:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestChromeTraceFromRun exports a real run and checks the trace-event
// JSON shape chrome://tracing and Perfetto require.
func TestChromeTraceFromRun(t *testing.T) {
	j := chaosRun(t, 3)
	buf, err := timeline.ChromeTrace(j.Events())
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	spans := 0
	for _, e := range trace.TraceEvents {
		for _, key := range []string{"ph", "ts", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("trace event missing %q: %v", key, e)
			}
		}
		if e["ph"] == "X" {
			spans++
			if dur, ok := e["dur"].(float64); !ok || dur < 0 {
				t.Fatalf("span with bad dur: %v", e)
			}
		}
	}
	if spans == 0 {
		t.Fatal("no attempt/fetch spans in trace")
	}
}

// TestCriticalPathMatchesWallClock checks the acceptance bound: the
// critical path's segment durations must sum to within 10% of the DAG's
// measured wall-clock (they tile the interval, so they agree exactly).
func TestCriticalPathMatchesWallClock(t *testing.T) {
	j := timeline.New()
	pcfg := platform.Default(4)
	pcfg.Timeline = j
	plat := platform.New(pcfg)
	defer plat.Stop()
	var lines []string
	for i := 0; i < 60; i++ {
		lines = append(lines, "a b c d e f g h i j k l")
	}
	writeLines(t, plat, "/in/cp", lines)
	sess := am.NewSession(plat, am.Config{Name: "cp", Timeline: j})
	defer sess.Close()
	res, err := sess.Run(wordCountDAG("wc", "/in/cp", "/out/cp", 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != am.DAGSucceeded {
		t.Fatalf("run status = %v", res.Status)
	}

	p, err := timeline.CriticalPath(j.Events(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Segments) == 0 {
		t.Fatal("empty critical path")
	}
	wall, total := p.Wall(), p.Total()
	if wall <= 0 {
		t.Fatalf("wall = %v", wall)
	}
	diff := total - wall
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.10*float64(wall) {
		t.Fatalf("path sum %v deviates more than 10%% from wall %v\n%s", total, wall, p)
	}
	// The journalled wall-clock must also track the AM's own measurement.
	if res.Duration > 0 && wall > res.Duration {
		t.Fatalf("journal wall %v exceeds AM-reported duration %v", wall, res.Duration)
	}
}

// TestCrashRecoveryJournalCoherence crashes the AM mid-run, recovers in a
// second session with a fresh journal, and requires the merged history to
// be one coherent stream: contiguous sequence numbers with no duplicates
// or gaps, the pre-crash vertex completion imported from the checkpoint,
// and recovery + finish markers recorded after it.
func TestCrashRecoveryJournalCoherence(t *testing.T) {
	plat := platform.New(platform.Fast(3))
	defer plat.Stop()
	writeLines(t, plat, "/in/crash", []string{"a b a c b a"})
	build := func() *dag.DAG { return wordCountDAG("crash", "/in/crash", "/out/crash", 1) }

	j1 := timeline.New()
	plane := chaos.New(11, chaos.Spec{AMCrashAfterVertexCompletions: 1})
	s1 := am.NewSession(plat, am.Config{Name: "am1", CheckpointPath: "/_cp_tl", Chaos: plane, Timeline: j1})
	res, err := s1.Run(build())
	s1.Close()
	if err == nil || !errors.Is(res.Err, chaos.ErrAMCrash) {
		t.Fatalf("expected injected AM crash, got %v %v", res.Status, err)
	}

	// The new AM starts with an empty journal, as a restarted process would.
	j2 := timeline.New()
	s2 := am.NewSession(plat, am.Config{Name: "am2", CheckpointPath: "/_cp_tl", Timeline: j2})
	defer s2.Close()
	h, err := s2.Recover(build())
	if err != nil {
		t.Fatal(err)
	}
	if res2 := h.Wait(); res2.Err != nil || res2.Status != am.DAGSucceeded {
		t.Fatalf("recovered run: %v %v", res2.Status, res2.Err)
	}

	runID := timeline.LastDAG(j2.Events())
	if runID == "" {
		t.Fatal("no run in recovered journal")
	}
	evs := j2.DAGEvents(runID)
	var succeeded, recovered, finished bool
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("seq[%d] = %d — duplicate or gap across the crash:\n%+v", i, e.Seq, evs)
		}
		switch e.Type {
		case timeline.VertexSucceeded:
			if e.Vertex == "tokenizer" && !recovered {
				succeeded = true // imported from the pre-crash checkpoint
			}
		case timeline.DAGRecovered:
			recovered = true
		case timeline.DAGFinished:
			finished = e.Info == "SUCCEEDED"
		}
	}
	if !succeeded {
		t.Fatal("pre-crash VERTEX_SUCCEEDED was not imported from the checkpoint")
	}
	if !recovered {
		t.Fatal("no DAG_RECOVERED marker in merged history")
	}
	if !finished {
		t.Fatal("merged history does not end in DAG_FINISHED SUCCEEDED")
	}

	// Pre-crash events must appear in both journals with identical
	// sequence numbers (same stream, two observers).
	pre := j1.DAGEvents(runID)
	if len(pre) == 0 {
		t.Fatal("crashed session journalled nothing")
	}
	bylen := len(pre)
	if bylen > len(evs) {
		bylen = len(evs)
	}
	imported := 0
	for i := 0; i < bylen; i++ {
		if pre[i].Type == evs[i].Type && pre[i].Seq == evs[i].Seq {
			imported++
		} else {
			break
		}
	}
	if imported == 0 {
		t.Fatalf("merged history does not start with the checkpointed prefix:\npre: %+v\nmerged: %+v", pre[0], evs[0])
	}
}

// TestShuffleCountersInJournal runs a wordcount with a spill-
// constrained, combined, flate-compressed shuffle and asserts the data
// plane shows up both in the run's counters and as journalled spill/merge
// spans — the counters-audit contract of the shuffle data plane.
func TestShuffleCountersInJournal(t *testing.T) {
	library.RegisterMapFunc("tltest.tokenize2", func(_, line []byte, out runtime.KVWriter) error {
		for _, w := range strings.Fields(string(line)) {
			if err := out.Write([]byte(w), []byte("1")); err != nil {
				return err
			}
		}
		return nil
	})
	sumv := func(k []byte, vs [][]byte, out runtime.KVWriter) error {
		n := 0
		for _, v := range vs {
			i, err := strconv.Atoi(string(v))
			if err != nil {
				return err
			}
			n += i
		}
		return out.Write(k, []byte(strconv.Itoa(n)))
	}
	library.RegisterReduceFunc("tltest.sumv", sumv)
	library.RegisterCombineFunc("tltest.sumv", sumv)

	j := timeline.New()
	pcfg := platform.Fast(4)
	pcfg.Timeline = j
	plat := platform.New(pcfg)
	defer plat.Stop()

	var lines []string
	for i := 0; i < 60; i++ {
		lines = append(lines, "alpha beta gamma delta epsilon zeta eta theta iota kappa")
	}
	writeLines(t, plat, "/in/dataplane", lines)

	d := dag.New("dp")
	tok := d.AddVertex("tokenizer", plugin.Desc(library.MapProcessorName, library.FuncConfig{Func: "tltest.tokenize2"}), -1)
	tok.Sources = []dag.DataSource{library.DFSSource("lines", []string{"/in/dataplane"}, 512)}
	sum := d.AddVertex("summation", plugin.Desc(library.ReduceProcessorName, library.FuncConfig{Func: "tltest.sumv"}), 2)
	sum.Sinks = []dag.DataSink{library.DFSSink("counts", "/out/dataplane")}
	// A few-KiB spill budget so this small run still spills, plus the
	// sum combiner — the knobs an application would set per edge.
	d.Connect(tok, sum, library.OrderedEdge(library.OrderedPartitionedConfig{
		SortBytes: 2048,
		Combiner:  "tltest.sumv",
	}))

	sess := am.NewSession(plat, am.Config{
		Name:         "dataplane",
		Timeline:     j,
		ShuffleCodec: "flate",
	})
	defer sess.Close()
	res, err := sess.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != am.DAGSucceeded {
		t.Fatalf("run status = %v", res.Status)
	}

	for _, c := range []string{"SHUFFLE_SORT_TIME_NS", "SHUFFLE_SPILLS", "SHUFFLE_MERGE_TIME_NS",
		"COMBINE_INPUT_RECORDS", "COMBINE_OUTPUT_RECORDS", "SHUFFLE_BYTES_WIRE", "SHUFFLE_BYTES_RAW"} {
		if res.Counters.Get(c) <= 0 {
			t.Errorf("counter %s missing from the run", c)
		}
	}
	if in, out := res.Counters.Get("COMBINE_INPUT_RECORDS"), res.Counters.Get("COMBINE_OUTPUT_RECORDS"); out >= in {
		t.Errorf("combiner did not reduce records: in=%d out=%d", in, out)
	}
	if w, r := res.Counters.Get("SHUFFLE_BYTES_WIRE"), res.Counters.Get("SHUFFLE_BYTES_RAW"); w >= r {
		t.Errorf("flate did not compress: wire=%d raw=%d", w, r)
	}
	spills, merges := 0, 0
	for _, e := range j.Events() {
		switch e.Type {
		case timeline.ShuffleSpill:
			spills++
		case timeline.ShuffleMerge:
			merges++
		}
	}
	if spills == 0 || merges == 0 {
		t.Fatalf("journal: %d spill, %d merge spans, want both > 0", spills, merges)
	}
}

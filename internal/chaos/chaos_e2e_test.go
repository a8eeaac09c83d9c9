// End-to-end chaos suite: the acceptance gate for the fault-injection
// plane. Every seeded schedule — transient and permanent fetch faults,
// task and launch faults, DFS read faults, node crashes, drains, slow
// nodes — must leave the final results byte-identical (after canonical
// ordering) to a fault-free run of the same DAG families.
//
// This lives in an external test package so it can drive the AM, relop
// and sparklike layers without an import cycle (they all import chaos).
package chaos_test

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tez/internal/am"
	"tez/internal/chaos"
	"tez/internal/dag"
	"tez/internal/data"
	"tez/internal/dfs"
	"tez/internal/library"
	"tez/internal/mapreduce"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/relop"
	"tez/internal/row"
	"tez/internal/runtime"
	"tez/internal/sparklike"
	"tez/internal/testutil"
)

func init() {
	library.RegisterMapFunc("chaose2e.tokenize", func(_, line []byte, out runtime.KVWriter) error {
		for _, w := range strings.Fields(string(line)) {
			if err := out.Write([]byte(w), []byte("1")); err != nil {
				return err
			}
		}
		return nil
	})
	library.RegisterReduceFunc("chaose2e.sum", func(key []byte, values [][]byte, out runtime.KVWriter) error {
		total := 0
		for _, v := range values {
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return err
			}
			total += n
		}
		return out.Write(key, []byte(strconv.Itoa(total)))
	})
}

func newChaosPlatform(plane *chaos.Plane) *platform.Platform {
	return newChaosPlatformN(plane, 8)
}

func newChaosPlatformN(plane *chaos.Plane, nodes int) *platform.Platform {
	cfg := platform.Fast(nodes)
	cfg.Chaos = plane
	return platform.New(cfg)
}

// seedInputs writes the identical inputs on every platform: text lines for
// wordcount, a deterministic Zipf pair table for relop and sparklike, and
// a table of one pair per key for the join's other side.
func seedInputs(t *testing.T, plat *platform.Platform) chaosTables {
	t.Helper()
	wr, err := library.CreateRecordFile(plat.FS, "/in/words", plat.FS.LiveNodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		line := fmt.Sprintf("tez dag vertex %d edge task %d attempt shuffle", i%7, i%13)
		if err := wr.Write(nil, []byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	tb, err := data.GenZipfPairs(plat.FS, "pairs", 600, 40, 1.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := data.GenUniquePairs(plat.FS, "keys", 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	return chaosTables{pairs: tb, keys: keys}
}

// chaosTables are the relational inputs: Zipf pairs (k, v) and one (k, v)
// per key.
type chaosTables struct {
	pairs, keys *relop.Table
}

// e2eResults is the canonicalised output of the DAG families. Part
// file layout may differ between runs (auto-parallelism, re-execution), so
// results are aggregated/sorted before comparison — the data, not the
// accidental file arrangement, must match.
type e2eResults struct {
	WordCounts map[string]int
	// SpillCounts is the wordcount again over a shuffle whose producers
	// spill, so each ships several sorted runs per partition.
	SpillCounts map[string]int
	AggRows     string
	JoinRows    string
	FloatRows   string
	PartRows    string
	// joinFaults counts the fetch retries, failed attempts and
	// re-executions the join DAG went through: compared with nothing.
	joinFaults int64
	// floatTasks counts the float aggregate's succeeded tasks, and
	// floatFaults what joinFaults counts for the join.
	floatTasks, floatFaults int64
	// spillTasks and spillSpills count the spilled wordcount's succeeded
	// tasks and its producers' spills, spillFaults what joinFaults counts.
	spillTasks, spillSpills, spillFaults int64
}

func runAllDAGs(t *testing.T, plat *platform.Platform, tables chaosTables, amCfg am.Config) e2eResults {
	t.Helper()
	testutil.FsckAtEnd(t, plat.FS)
	sess := am.NewSession(plat, amCfg)
	defer sess.Close()

	if _, err := mapreduce.RunOnTez(sess, mapreduce.JobConf{
		Name: "wc", Map: "chaose2e.tokenize", Reduce: "chaose2e.sum",
		InputPaths: []string{"/in/words"}, OutputPath: "/out/wc",
		Reducers: 3, SplitSize: 2 * 1024,
	}); err != nil {
		t.Fatalf("wordcount: %v", err)
	}

	tb := tables.pairs
	plan := relop.StoreNode(
		relop.AggNode(relop.Scan(tb),
			[]*relop.Expr{relop.Col(0)}, []string{"k"},
			[]relop.AggDef{{Func: "sum", Arg: relop.Col(1), Name: "s"}}),
		"/out/agg")
	if _, err := relop.RunTez(sess, relop.Config{}, "agg", []*relop.Node{plan}); err != nil {
		t.Fatalf("relop: %v", err)
	}

	// q18's shape: the one-per-key side joined with the Zipf side on k,
	// grouped by the key, the Zipf side's v summed — the join and its sum
	// run in one vertex fed by two hash edges.
	join := relop.JoinNode(relop.Scan(tables.keys), relop.Scan(tb),
		[]*relop.Expr{relop.Col(0)}, []*relop.Expr{relop.Col(0)}, false)
	joinPlan := relop.StoreNode(
		relop.AggNode(join, []*relop.Expr{relop.Col(0)}, []string{"k"},
			[]relop.AggDef{{Func: "sum", Arg: relop.Col(3), Name: "s"}}),
		"/out/join")
	joinRes, err := relop.RunTez(sess, relop.Config{DefaultPartitions: 8}, "join", []*relop.Node{joinPlan})
	if err != nil {
		t.Fatalf("relop join: %v", err)
	}

	// A float aggregate over at least two scan tasks (one per split):
	// each task pre-aggregates its rows into exact partial states, so the
	// seeds' refetches and re-executions move partial states (8 partitions
	// give every seed's faults fetches to reach), and the sums and
	// averages must not change in a bit.
	v := relop.Arith("*", relop.Col(1), relop.LitFloat(0.1))
	floatPlan := relop.StoreNode(
		relop.AggNode(relop.Scan(tb), []*relop.Expr{relop.Col(0)}, []string{"k"},
			[]relop.AggDef{{Func: "sum", Arg: v, Name: "s"}, {Func: "avg", Arg: v, Name: "a"}}),
		"/out/fagg")
	floatRes, err := relop.RunTez(sess, relop.Config{DefaultPartitions: 8, SplitSize: 1024}, "fagg", []*relop.Node{floatPlan})
	if err != nil {
		t.Fatalf("relop float aggregate: %v", err)
	}

	if err := sparklike.RunPartitionTez(sess, "part", sparklike.PartitionJob{
		Table: tb, KeyCol: 0, Partitions: 3, OutPath: "/out/part",
	}); err != nil {
		t.Fatalf("sparklike: %v", err)
	}

	// The wordcount once more, with a sort budget of 1 KiB: every
	// producer spills many times and ships its runs unmerged, so the
	// seeds' refetches and re-executions move multi-run partitions.
	wc := dag.New("wcspill")
	m := wc.AddVertex("map", plugin.Desc(library.MapProcessorName, library.FuncConfig{Func: "chaose2e.tokenize"}), -1)
	m.Sources = []dag.DataSource{library.DFSSource("words", []string{"/in/words"}, 2*1024)}
	r := wc.AddVertex("reduce", plugin.Desc(library.ReduceProcessorName, library.FuncConfig{Func: "chaose2e.sum"}), 3)
	r.Sinks = []dag.DataSink{library.DFSSink("counts", "/out/wcspill")}
	wc.Connect(m, r, library.OrderedEdge(library.OrderedPartitionedConfig{SortBytes: 1024}))
	spillRes, err := sess.Run(wc)
	if err != nil || spillRes.Status != am.DAGSucceeded {
		t.Fatalf("spilled wordcount: %v %v", spillRes.Status, err)
	}

	return e2eResults{
		WordCounts:  readWordCounts(t, plat.FS, "/out/wc"),
		SpillCounts: readWordCounts(t, plat.FS, "/out/wcspill"),
		AggRows:     canonRows(t, plat.FS, "/out/agg"),
		JoinRows:    canonRows(t, plat.FS, "/out/join"),
		FloatRows:   canonRows(t, plat.FS, "/out/fagg"),
		PartRows:    canonRows(t, plat.FS, "/out/part"),
		floatTasks:  floatRes.Counters.Get("TASKS_SUCCEEDED"),
		floatFaults: floatRes.Counters.Get("SHUFFLE_FETCH_RETRIES") +
			floatRes.Counters.Get("ATTEMPTS_FAILED") + floatRes.Counters.Get("TASKS_REEXECUTED"),
		joinFaults: joinRes.Counters.Get("SHUFFLE_FETCH_RETRIES") +
			joinRes.Counters.Get("ATTEMPTS_FAILED") + joinRes.Counters.Get("TASKS_REEXECUTED"),
		spillTasks:  spillRes.Counters.Get("TASKS_SUCCEEDED"),
		spillSpills: spillRes.Counters.Get("SHUFFLE_SPILLS"),
		spillFaults: spillRes.Counters.Get("SHUFFLE_FETCH_RETRIES") +
			spillRes.Counters.Get("ATTEMPTS_FAILED") + spillRes.Counters.Get("TASKS_REEXECUTED"),
	}
}

func readWordCounts(t *testing.T, fs *dfs.FileSystem, out string) map[string]int {
	t.Helper()
	res := map[string]int{}
	for _, f := range fs.List(out + "/part-") {
		blob, err := fs.ReadFile(f, "")
		if err != nil {
			t.Fatal(err)
		}
		r := library.NewPaddedReader(blob)
		for r.Next() {
			n, err := strconv.Atoi(string(r.Value()))
			if err != nil {
				t.Fatal(err)
			}
			// One reduce group per word: a key written twice was grouped
			// from a stream that was not in key order.
			if _, dup := res[string(r.Key())]; dup {
				t.Errorf("%s: word %q committed twice", out, r.Key())
			}
			res[string(r.Key())] += n
		}
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	}
	return res
}

func canonRows(t *testing.T, fs *dfs.FileSystem, path string) string {
	t.Helper()
	rows, err := relop.ReadStored(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = string(row.EncodeKey(nil, r...))
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

func totalInjected(p *chaos.Plane) int64 {
	var n int64
	for _, v := range p.Injected() {
		n += v
	}
	return n
}

func checkEqual(t *testing.T, got, want e2eResults) {
	t.Helper()
	if !reflect.DeepEqual(got.WordCounts, want.WordCounts) {
		t.Errorf("wordcount diverged under chaos:\ngot:  %v\nwant: %v", got.WordCounts, want.WordCounts)
	}
	if !reflect.DeepEqual(got.SpillCounts, want.SpillCounts) {
		t.Errorf("spilled wordcount diverged under chaos:\ngot:  %v\nwant: %v", got.SpillCounts, want.SpillCounts)
	}
	if got.AggRows != want.AggRows {
		t.Errorf("relop aggregate diverged under chaos")
	}
	if got.JoinRows != want.JoinRows {
		t.Errorf("relop join aggregate diverged under chaos")
	}
	if got.FloatRows != want.FloatRows {
		t.Errorf("relop float aggregate diverged under chaos")
	}
	if got.PartRows != want.PartRows {
		t.Errorf("sparklike partition diverged under chaos")
	}
}

// TestChaosSeedsMatchFaultFree runs the DAG families under ten fixed
// seeded fault schedules and demands results identical to a fault-free
// run; every seed's faults reach the join's hash edges and the float
// aggregate's partial states, and some seed's reach the spilled
// wordcount's multi-run partitions. Seeds rotate extra whole-node events on top of a common background
// of fetch/task/launch/DFS faults; node events stay within Replication-1
// so the DFS keeps every block readable.
func TestChaosSeedsMatchFaultFree(t *testing.T) {
	basePlat := newChaosPlatform(nil)
	tables := seedInputs(t, basePlat)
	baseline := runAllDAGs(t, basePlat, tables, am.Config{Name: "clean"})
	basePlat.Stop()
	if len(baseline.WordCounts) == 0 || baseline.AggRows == "" || baseline.JoinRows == "" ||
		baseline.FloatRows == "" || baseline.PartRows == "" || !reflect.DeepEqual(baseline.SpillCounts, baseline.WordCounts) {
		t.Fatal("fault-free baseline is empty, or the spilled wordcount disagrees with the plain one")
	}
	if baseline.floatTasks < 3 {
		t.Fatalf("float aggregate ran %d tasks, want at least two scan tasks and an aggregate", baseline.floatTasks)
	}
	// Every task counted as a producer: more than two spills each.
	if baseline.spillSpills <= 2*baseline.spillTasks {
		t.Fatalf("spilled wordcount: %d spills over %d tasks, want more than two per producer", baseline.spillSpills, baseline.spillTasks)
	}
	t.Logf("spilled wordcount: %d spills over %d tasks", baseline.spillSpills, baseline.spillTasks)
	var spillFaults atomic.Int64
	t.Cleanup(func() {
		if !t.Failed() && spillFaults.Load() == 0 {
			t.Error("no seed's retried fetch, failed attempt or re-execution reached the spilled wordcount")
		}
	})

	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := chaos.Spec{
				TransientFetchProb: 0.20,
				FetchDataLostProb:  0.03,
				LaunchFailProb:     0.05,
				TaskFaultProb:      0.05,
				DFSReadFaultProb:   0.02,
				StepSpacing:        3,
			}
			amCfg := am.Config{Name: "chaos", MaxTaskAttempts: 8}
			switch seed % 3 {
			case 0:
				spec.CrashNodes = 1 // == Replication-1 on the Fast platform
			case 1:
				spec.DecommissionNodes = 1
			case 2:
				spec.SlowNodeCount = 1
				spec.SlowExecDelay = 2 * time.Millisecond
				spec.SlowFetchFactor = 3
				amCfg.Speculation = true
			}
			plane := chaos.New(seed, spec)
			plat := newChaosPlatform(plane)
			defer plat.Stop()
			tables := seedInputs(t, plat)
			got := runAllDAGs(t, plat, tables, amCfg)
			checkEqual(t, got, baseline)
			if totalInjected(plane) == 0 {
				t.Errorf("seed %d injected no faults — schedule too weak to prove anything", seed)
			}
			if got.joinFaults == 0 {
				t.Errorf("seed %d: the join's hash edges saw no retried fetch, failed attempt or re-execution", seed)
			}
			if got.floatFaults == 0 {
				t.Errorf("seed %d: the float aggregate's partial states saw no retried fetch, failed attempt or re-execution", seed)
			}
			spillFaults.Add(got.spillFaults)
			t.Logf("seed %d: %d faults injected, join saw %d, float aggregate %d, spilled wordcount %d, schedule %v",
				seed, totalInjected(plane), got.joinFaults, got.floatFaults, got.spillFaults, plane.Schedule())
		})
	}
}

// TestChaosSickNodeEndToEnd: a seed-picked permanently failing node must
// not change any result — blacklisting steers work off it while the rest
// of the cluster carries the DAGs.
func TestChaosSickNodeEndToEnd(t *testing.T) {
	basePlat := newChaosPlatform(nil)
	tables := seedInputs(t, basePlat)
	baseline := runAllDAGs(t, basePlat, tables, am.Config{Name: "clean"})
	basePlat.Stop()

	// Both seeds pick node-000 as the sick machine — the node the RM fills
	// first, so the fault path is guaranteed to be exercised.
	for _, seed := range []int64{22, 27} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			// 4 nodes, not 8: with container reuse only a few machines see
			// work, and on a small cluster the sick one reliably does.
			plane := chaos.New(seed, chaos.Spec{SickNodeCount: 1})
			plat := newChaosPlatformN(plane, 4)
			defer plat.Stop()
			tables := seedInputs(t, plat)
			got := runAllDAGs(t, plat, tables, am.Config{
				Name: "sick", MaxTaskAttempts: 8, NodeMaxTaskFailures: 2,
			})
			checkEqual(t, got, baseline)
			if totalInjected(plane) == 0 {
				t.Errorf("sick node %v never exercised", plane.SickNodes())
			}
			t.Logf("seed %d: sick=%v injected=%d", seed, plane.SickNodes(), totalInjected(plane))
		})
	}
}

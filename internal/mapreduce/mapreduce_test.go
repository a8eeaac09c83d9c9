package mapreduce

import (
	"strconv"
	"strings"
	"testing"

	"tez/internal/am"
	"tez/internal/library"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/runtime"
)

func init() {
	library.RegisterMapFunc("mrtest.tokenize", func(_, value []byte, out runtime.KVWriter) error {
		for _, w := range strings.Fields(string(value)) {
			if err := out.Write([]byte(w), []byte("1")); err != nil {
				return err
			}
		}
		return nil
	})
	library.RegisterReduceFunc("mrtest.sum", func(key []byte, values [][]byte, out runtime.KVWriter) error {
		return out.Write(key, []byte(strconv.Itoa(len(values))))
	})
	library.RegisterMapFunc("mrtest.identity", func(k, v []byte, out runtime.KVWriter) error {
		return out.Write(k, v)
	})
	library.RegisterMapFunc("mrtest.double", func(k, v []byte, out runtime.KVWriter) error {
		n, err := strconv.Atoi(string(v))
		if err != nil {
			return err
		}
		return out.Write(k, []byte(strconv.Itoa(2*n)))
	})
}

func writeText(t *testing.T, plat *platform.Platform, path string, lines []string) {
	t.Helper()
	w, err := library.CreateRecordFile(plat.FS, path, plat.FS.LiveNodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if err := w.Write(nil, []byte(l)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readKV(t *testing.T, plat *platform.Platform, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, f := range plat.FS.List(dir + "/part-") {
		data, err := plat.FS.ReadFile(f, "")
		if err != nil {
			t.Fatal(err)
		}
		r := library.NewPaddedReader(data)
		for r.Next() {
			out[string(r.Key())] = string(r.Value())
		}
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	}
	return out
}

func TestWordCountOnBothEngines(t *testing.T) {
	plat := platform.New(platform.Fast(4))
	defer plat.Stop()
	writeText(t, plat, "/in/t", []string{"a b a", "c a b"})
	sess := am.NewSession(plat, am.Config{Name: "mr"})
	defer sess.Close()

	job := JobConf{Name: "wc", Map: "mrtest.tokenize", Reduce: "mrtest.sum",
		InputPaths: []string{"/in/t"}, OutputPath: "/out/tez"}
	if res, err := RunOnTez(sess, job); err != nil || res.Status != am.DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	want := map[string]string{"a": "3", "b": "2", "c": "1"}
	got := readKV(t, plat, "/out/tez")
	if len(got) != 3 || got["a"] != want["a"] || got["b"] != want["b"] || got["c"] != want["c"] {
		t.Fatalf("tez got %v", got)
	}

	job.OutputPath = "/out/classic"
	if res, err := RunClassic(plat, job); err != nil || res.Status != am.DAGSucceeded {
		t.Fatalf("classic: %v %v", res.Status, err)
	}
	got2 := readKV(t, plat, "/out/classic")
	if len(got2) != 3 || got2["a"] != "3" {
		t.Fatalf("classic got %v", got2)
	}
}

func TestMapOnlyJob(t *testing.T) {
	plat := platform.New(platform.Fast(2))
	defer plat.Stop()
	writeText(t, plat, "/in/m", []string{"x y"})
	sess := am.NewSession(plat, am.Config{Name: "mo"})
	defer sess.Close()
	job := JobConf{Name: "mo", Map: "mrtest.tokenize",
		InputPaths: []string{"/in/m"}, OutputPath: "/out/mo"}
	if res, err := RunOnTez(sess, job); err != nil || res.Status != am.DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	got := readKV(t, plat, "/out/mo")
	if got["x"] != "1" || got["y"] != "1" {
		t.Fatalf("got %v", got)
	}
}

func TestJobChain(t *testing.T) {
	plat := platform.New(platform.Fast(3))
	defer plat.Stop()
	writeText(t, plat, "/in/c", []string{"a a b"})
	sess := am.NewSession(plat, am.Config{Name: "chain"})
	defer sess.Close()
	jobs := []JobConf{
		{Name: "count", Map: "mrtest.tokenize", Reduce: "mrtest.sum",
			InputPaths: []string{"/in/c"}, OutputPath: "/chain/1"},
		{Name: "double", Map: "mrtest.double",
			InputPaths: []string{}, OutputPath: "/chain/2"},
	}
	// The second job reads the first job's committed parts.
	if err := RunChainOnTez(sess, jobs[:1]); err != nil {
		t.Fatal(err)
	}
	jobs[1].InputPaths = plat.FS.List("/chain/1/part-")
	if err := RunChainOnTez(sess, jobs[1:]); err != nil {
		t.Fatal(err)
	}
	got := readKV(t, plat, "/chain/2")
	if got["a"] != "4" || got["b"] != "2" {
		t.Fatalf("got %v", got)
	}
}

func TestBadJobConf(t *testing.T) {
	if _, err := BuildDAG(JobConf{}); err == nil {
		t.Fatal("empty conf accepted")
	}
	if _, err := BuildDAG(JobConf{Name: "x", Map: "m", InputPaths: []string{"/i"}}); err == nil {
		t.Fatal("missing output accepted")
	}
}

// TestNoGobOnTheTaskPath: every payload a MapReduce DAG moves — processor,
// split, sink and edge configuration per task, a DataMovement payload per
// producer partition and per fetch, statistics per producer — has a binary
// codec, so a 16-map × 4-reduce job (20 tasks, 64 fetches) builds no gob
// decoder at all. Auto-parallelism is off so that all four reducers run.
func TestNoGobOnTheTaskPath(t *testing.T) {
	plat := platform.New(platform.Fast(4))
	defer plat.Stop()
	var inputs []string
	for i := 0; i < 16; i++ {
		p := "/in/g/" + strconv.Itoa(i)
		writeText(t, plat, p, []string{"a b c d e f g h", "a c e g"})
		inputs = append(inputs, p)
	}
	sess := am.NewSession(plat, am.Config{Name: "nogob", DisableAutoParallelism: true})
	defer sess.Close()
	d, err := BuildDAG(JobConf{Name: "nogob", Map: "mrtest.tokenize", Reduce: "mrtest.sum",
		InputPaths: inputs, OutputPath: "/out/g", Reducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := plugin.GobDecodes()
	res, err := sess.Run(d)
	decodes := plugin.GobDecodes() - before
	if err != nil || res.Status != am.DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	tasks, fetches := res.Counters.Get("TASKS_SUCCEEDED"), res.Counters.Get("SHUFFLE_FETCHES")
	if tasks != 20 || fetches != 64 {
		t.Fatalf("%d tasks and %d fetches, want 20 and 64 — the job is not the shape this test is about", tasks, fetches)
	}
	if decodes != 0 {
		t.Fatalf("%d gob decodes in a job of %d tasks and %d fetches, want none", decodes, tasks, fetches)
	}
	if got := readKV(t, plat, "/out/g"); got["a"] != "32" || got["h"] != "16" {
		t.Fatalf("counts %v", got)
	}
}

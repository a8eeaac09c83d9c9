package library_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"tez/internal/am"
	"tez/internal/dag"
	"tez/internal/event"
	"tez/internal/library"
	"tez/internal/mapreduce"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/relop"
	"tez/internal/row"
	"tez/internal/runtime"
)

// countingVM is the default vertex manager plus a count, in vmEvents, of
// the statistics events it was sent.
type countingVM struct{ am.ShuffleVertexManager }

var vmEvents atomic.Int64

func (m *countingVM) OnVertexManagerEvent(ev event.VertexManagerEvent) {
	vmEvents.Add(1)
	m.ShuffleVertexManager.OnVertexManagerEvent(ev)
}

func init() {
	am.RegisterVertexManager("libtest.counting_vm", func() am.VertexManager { return &countingVM{} })
}

// sinkRecords reads back every record committed under a DFSSink's path.
func sinkRecords(t *testing.T, plat *platform.Platform, dir string) (keys, values []string) {
	t.Helper()
	for _, f := range plat.FS.List(dir + "/part-") {
		data, err := plat.FS.ReadFile(f, "")
		if err != nil {
			t.Fatal(err)
		}
		r := library.NewPaddedReader(data)
		for r.Next() {
			keys, values = append(keys, string(r.Key())), append(values, string(r.Value()))
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return keys, values
}

// TestEdgeConstructors holds every edge constructor to the compatibility
// rule it states (§3.1): both descriptors resolve through the registry, a
// default edge carries no payload and a configured one carries exactly the
// config it was given, and on a two-vertex DAG the input class reads what
// the output class wrote — every record once per consumer that should see
// it, with statistics sent to the consumer's manager by the partitioned
// outputs only.
func TestEdgeConstructors(t *testing.T) {
	library.RegisterMapFunc("libtest.identity", func(k, v []byte, out runtime.KVWriter) error { return out.Write(v, v) })
	each := func(k []byte, vs [][]byte, out runtime.KVWriter) error {
		for _, v := range vs {
			if err := out.Write(k, v); err != nil {
				return err
			}
		}
		return nil
	}
	library.RegisterReduceFunc("libtest.each", each)
	library.RegisterCombineFunc("libtest.each", each)

	configured := library.OrderedPartitionedConfig{Combiner: "libtest.each", SortBytes: 512}
	const consumers = 2
	cases := []struct {
		name      string
		edge      dag.EdgeProperty
		movement  dag.MovementType
		config    *library.OrderedPartitionedConfig // nil: the edge must carry no payload
		grouped   bool                              // consumer reads a GroupedKVReader
		consumers int                               // -1: inherited through the edge
		copies    int                               // times each record reaches the sink
		stats     bool                              // one VMStats per producer task
	}{
		{"ordered", library.OrderedEdge(library.OrderedPartitionedConfig{}), dag.ScatterGather, nil, true, consumers, 1, true},
		{"ordered configured", library.OrderedEdge(configured), dag.ScatterGather, &configured, true, consumers, 1, true},
		{"unordered partitioned", library.UnorderedPartitionedEdge(), dag.ScatterGather, nil, false, consumers, 1, true},
		{"broadcast", library.BroadcastEdge(), dag.Broadcast, nil, false, consumers, consumers, false},
		{"one-to-one", library.OneToOneEdge(), dag.OneToOne, nil, false, -1, 1, false},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.edge.Movement != tc.movement || !tc.edge.Manager.IsZero() {
				t.Fatalf("movement %v, manager %q", tc.edge.Movement, tc.edge.Manager.Name)
			}
			if _, err := plugin.New[runtime.Output](plugin.KindOutput, tc.edge.Output); err != nil {
				t.Fatal(err)
			}
			if _, err := plugin.New[runtime.Input](plugin.KindInput, tc.edge.Input); err != nil {
				t.Fatal(err)
			}
			if tc.edge.Input.Payload != nil {
				t.Fatalf("input payload %x", tc.edge.Input.Payload)
			}
			if tc.config == nil {
				if tc.edge.Output.Payload != nil {
					t.Fatalf("default edge carries payload %x", tc.edge.Output.Payload)
				}
			} else {
				var got library.OrderedPartitionedConfig
				if err := plugin.Decode(tc.edge.Output.Payload, &got); err != nil || !reflect.DeepEqual(got, *tc.config) {
					t.Fatalf("payload decodes to %+v (%v), want %+v", got, err, *tc.config)
				}
			}

			plat := platform.New(platform.Fast(3))
			defer plat.Stop()
			in, out := fmt.Sprintf("/in/edge%d", i), fmt.Sprintf("/out/edge%d", i)
			var want []string
			w, err := library.CreateRecordFile(plat.FS, in, plat.FS.LiveNodes()[0])
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 300; r++ { // several 4 KiB blocks: more than one producer task
				rec := fmt.Sprintf("record-%03d-%s", r, bytes.Repeat([]byte{'x'}, 40))
				if err := w.Write(nil, []byte(rec)); err != nil {
					t.Fatal(err)
				}
				for c := 0; c < tc.copies; c++ {
					want = append(want, rec)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			d := dag.New(fmt.Sprintf("edge%d", i))
			src := d.AddVertex("src", plugin.Desc(library.MapProcessorName, library.FuncConfig{Func: "libtest.identity"}), -1)
			src.Sources = []dag.DataSource{library.DFSSource("in", []string{in}, 4096)}
			proc := plugin.Desc(library.MapProcessorName, library.FuncConfig{Func: "libtest.identity"})
			if tc.grouped {
				proc = plugin.Desc(library.ReduceProcessorName, library.FuncConfig{Func: "libtest.each"})
			}
			dst := d.AddVertex("dst", proc, tc.consumers)
			dst.Manager = plugin.Desc("libtest.counting_vm", nil)
			dst.Sinks = []dag.DataSink{library.DFSSink("out", out)}
			d.Connect(src, dst, tc.edge)

			vmEvents.Store(0)
			res, err := am.RunDAG(plat, am.Config{Name: "edges", DisableAutoParallelism: true}, d)
			if err != nil || res.Status != am.DAGSucceeded {
				t.Fatalf("%v %v", res.Status, err)
			}
			_, got := sinkRecords(t, plat, out)
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sink holds %d records, want %d (each input record × %d)", len(got), len(want), tc.copies)
			}
			producers := res.Counters.Get("TASKS_SUCCEEDED") - int64(len(plat.FS.List(out+"/part-")))
			if producers < 2 {
				t.Fatalf("%d producer tasks, want several", producers)
			}
			wantStats := int64(0)
			if tc.stats {
				wantStats = producers
			}
			if n := vmEvents.Load(); n != wantStats {
				t.Fatalf("consumer's manager got %d statistics events, want %d (%d producers)", n, wantStats, producers)
			}
		})
	}
}

// TestEngineUnorderedEdgesSendNoStats runs the two engine DAGs that ride
// the one-partition output — mapreduce.StitchWorkflow's one-to-one job
// boundary and relop's broadcast join — end to end with the counting
// manager on the consuming vertex: right answers, no statistics events.
func TestEngineUnorderedEdgesSendNoStats(t *testing.T) {
	library.RegisterMapFunc("libtest.kv", func(k, v []byte, out runtime.KVWriter) error { return out.Write(v, v) })
	library.RegisterMapFunc("libtest.pass", func(k, v []byte, out runtime.KVWriter) error { return out.Write(k, v) })
	library.RegisterReduceFunc("libtest.count", func(k []byte, vs [][]byte, out runtime.KVWriter) error {
		return out.Write(k, []byte(fmt.Sprint(len(vs))))
	})
	plat := platform.New(platform.Fast(3))
	defer plat.Stop()
	// run attaches the counting manager to the consumer of the DAG's one
	// edge with the given movement and runs the DAG.
	run := func(d *dag.DAG, m dag.MovementType) {
		t.Helper()
		watched := 0
		for _, e := range d.Edges {
			if v := d.Vertex(e.To); e.Property.Movement == m && v.Manager.IsZero() {
				v.Manager = plugin.Desc("libtest.counting_vm", nil)
				watched++
			}
		}
		if watched != 1 {
			t.Fatalf("%s: %d %v edges to watch", d.Name, watched, m)
		}
		vmEvents.Store(0)
		res, err := am.RunDAG(plat, am.Config{Name: d.Name}, d)
		if err != nil || res.Status != am.DAGSucceeded {
			t.Fatalf("%s: %v %v", d.Name, res.Status, err)
		}
		if n := vmEvents.Load(); n != 0 {
			t.Errorf("%s: %d statistics events over a %v edge", d.Name, n, m)
		}
	}

	w, err := library.CreateRecordFile(plat.FS, "/in/stitch", plat.FS.LiveNodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, word := range []string{"a", "b", "a", "c", "a"} {
		if err := w.Write(nil, []byte(word)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stitched, err := mapreduce.StitchWorkflow("stitched", []mapreduce.JobConf{
		{Name: "count", Map: "libtest.kv", Reduce: "libtest.count", InputPaths: []string{"/in/stitch"}},
		{Name: "pass", Map: "libtest.pass", OutputPath: "/out/stitch"},
	})
	if err != nil {
		t.Fatal(err)
	}
	run(stitched, dag.OneToOne)
	counts := map[string]string{}
	keys, values := sinkRecords(t, plat, "/out/stitch")
	for i, k := range keys {
		counts[k] = values[i]
	}
	if want := map[string]string{"a": "3", "b": "1", "c": "1"}; !reflect.DeepEqual(counts, want) {
		t.Errorf("stitched workflow stored %v, want %v", counts, want)
	}

	big := &relop.Table{Name: "big", Schema: row.NewSchema("k:int", "v:int")}
	small := &relop.Table{Name: "small", Schema: row.NewSchema("k:int", "name:int")}
	for tb, rows := range map[*relop.Table][]row.Row{
		big:   {{row.Int(1), row.Int(1)}, {row.Int(2), row.Int(2)}, {row.Int(1), row.Int(3)}, {row.Int(9), row.Int(9)}},
		small: {{row.Int(1), row.Int(100)}, {row.Int(2), row.Int(200)}},
	} {
		if err := relop.WriteTable(plat.FS, tb, 2, rows); err != nil {
			t.Fatal(err)
		}
	}
	join := relop.JoinNode(relop.Scan(big), relop.Scan(small), []*relop.Expr{relop.Col(0)}, []*relop.Expr{relop.Col(0)}, true)
	bj, err := relop.EmitDAGOnly(relop.Config{}, "bj", []*relop.Node{relop.StoreNode(join, "/out/bj")})
	if err != nil {
		t.Fatal(err)
	}
	run(bj, dag.Broadcast)
	if rows, err := relop.ReadStored(plat.FS, "/out/bj"); err != nil || len(rows) != 3 {
		t.Errorf("broadcast join stored %d rows (%v), want 3: %v", len(rows), err, rows)
	}
}

// TestDFSSourceAndSink: the source's two descriptors resolve and carry the
// paths and split size; the sink's output and committer are configured by
// the same bytes.
func TestDFSSourceAndSink(t *testing.T) {
	src := library.DFSSource("in", []string{"/a", "/b"}, 1024)
	if _, err := plugin.New[runtime.Input](plugin.KindInput, src.Input); err != nil {
		t.Fatal(err)
	}
	if _, err := plugin.New[runtime.Initializer](plugin.KindInitializer, src.Initializer); err != nil {
		t.Fatal(err)
	}
	var sc library.SplitSourceConfig
	want := library.SplitSourceConfig{Paths: []string{"/a", "/b"}, DesiredSplitSize: 1024}
	if err := plugin.Decode(src.Initializer.Payload, &sc); err != nil || !reflect.DeepEqual(sc, want) {
		t.Fatalf("initializer payload %+v (%v), want %+v", sc, err, want)
	}
	if src.Name != "in" || src.Input.Payload != nil {
		t.Fatalf("source %+v", src)
	}

	sink := library.DFSSink("out", "/o")
	if _, err := plugin.New[runtime.Output](plugin.KindOutput, sink.Output); err != nil {
		t.Fatal(err)
	}
	if _, err := plugin.New[runtime.Committer](plugin.KindCommitter, sink.Committer); err != nil {
		t.Fatal(err)
	}
	var kc library.DFSSinkConfig
	if err := plugin.Decode(sink.Output.Payload, &kc); err != nil || kc.Path != "/o" || sink.Name != "out" {
		t.Fatalf("sink %+v decodes to %+v (%v)", sink, kc, err)
	}
	if !bytes.Equal(sink.Output.Payload, sink.Committer.Payload) {
		t.Fatalf("output payload %x, committer payload %x", sink.Output.Payload, sink.Committer.Payload)
	}
}

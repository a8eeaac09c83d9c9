package am

import (
	"fmt"
	"strconv"
	"testing"

	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/plugin"
	"tez/internal/runtime"
)

// bucketProducer writes a deterministic, skewed bucket layout through a
// range partitioner: bucket b receives weights[b] rows per producer task.
type bucketProducer struct{ ctx *runtime.Context }

var bucketWeights = []int{40, 1, 1, 1, 40, 1, 1, 1} // two heavy, six tiny

func (p *bucketProducer) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *bucketProducer) Run(_ map[string]runtime.Input, out map[string]runtime.Output) error {
	w, err := out["join"].Writer()
	if err != nil {
		return err
	}
	kw := w.(runtime.KVWriter)
	for b, n := range bucketWeights {
		for i := 0; i < n; i++ {
			key := []byte(fmt.Sprintf("k%d", b))
			if err := kw.Write(key, []byte(strconv.Itoa(i))); err != nil {
				return err
			}
		}
	}
	return nil
}
func (p *bucketProducer) Close() error { return nil }

// bucketConsumer counts the rows of every group it was assigned and
// reports how many buckets fed it (via the grouped reader's key count).
type bucketConsumer struct{ ctx *runtime.Context }

func (p *bucketConsumer) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *bucketConsumer) Run(in map[string]runtime.Input, out map[string]runtime.Output) error {
	rd, err := in["producer"].Reader()
	if err != nil {
		return err
	}
	g := rd.(runtime.GroupedKVReader)
	w, err := out["sink"].Writer()
	if err != nil {
		return err
	}
	kw := w.(runtime.KVWriter)
	for g.Next() {
		if err := kw.Write(g.Key(), []byte(strconv.Itoa(len(g.Values())))); err != nil {
			return err
		}
	}
	return g.Err()
}
func (p *bucketConsumer) Close() error { return nil }

// TestDynamicallyPartitionedHashJoin exercises §5.2's flagship custom-edge
// pattern end to end: producers bucket into 8 range partitions with very
// skewed sizes; the BucketGroupingVertexManager packs the buckets into
// balanced groups at runtime, shrinks the consumer vertex, and installs
// the grouped-shuffle custom edge manager — and the join-side counts come
// out exactly right.
func TestDynamicallyPartitionedHashJoin(t *testing.T) {
	runtime.RegisterProcessor("amtest.bucket_prod", func() runtime.Processor { return &bucketProducer{} })
	runtime.RegisterProcessor("amtest.bucket_cons", func() runtime.Processor { return &bucketConsumer{} })
	plat := newTestPlatform(4)
	defer plat.Stop()

	const producers = 2
	// Range points kN-boundaries so bucket b == key "k<b>".
	var points [][]byte
	for b := 1; b < len(bucketWeights); b++ {
		points = append(points, []byte(fmt.Sprintf("k%d", b-1)))
	}

	d := dag.New("dphj")
	prod := d.AddVertex("producer", plugin.Desc("amtest.bucket_prod", nil), producers)
	cons := d.AddVertex("join", plugin.Desc("amtest.bucket_cons", nil), len(bucketWeights))
	cons.Manager = plugin.Desc(BucketGroupingVertexManagerName, BucketGroupingConfig{
		// Each heavy bucket (~40 rows * 2 producers * ~10B) must land in
		// its own group; tiny buckets pack together.
		TargetBytesPerTask: 600,
	})
	cons.Sinks = []dag.DataSink{library.DFSSink("sink", "/out/dphj")}
	// The shuffle's IO pair under a custom movement: the grouped edge
	// manager routes, the ordered output/input still carry the data.
	edge := library.OrderedEdge(library.OrderedPartitionedConfig{
		Partitioner: library.PartitionerSpec{Kind: "range", Points: points},
	})
	edge.Movement = dag.CustomMovement
	edge.Manager = plugin.Desc(library.GroupedShuffleEdgeManagerName, nil)
	d.Connect(prod, cons, edge)

	res, err := RunDAG(plat, Config{Name: "dphj", DisableAutoParallelism: true}, d)
	if err != nil || res.Status != DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	if res.Counters.Get("PARALLELISM_RECONFIGURED") == 0 {
		t.Fatal("vertex was never reconfigured")
	}

	// Every key's total must be weights[b] × producers.
	counts := readCounts(t, plat, "/out/dphj")
	for b, wgt := range bucketWeights {
		k := fmt.Sprintf("k%d", b)
		if counts[k] != wgt*producers {
			t.Fatalf("bucket %s = %d, want %d (all: %v)", k, counts[k], wgt*producers, counts)
		}
	}
	// The consumer ran fewer tasks than the 8 submitted: buckets were
	// grouped. Exactly how many groups depends on sizes; it must be
	// between 2 (the heavies) and 7.
	joins := res.Counters.Get("TASKS_SUCCEEDED") - producers
	if joins < 2 || joins >= int64(len(bucketWeights)) {
		t.Fatalf("join tasks = %d, want grouped (2..7)", joins)
	}
}

func TestPackPartitions(t *testing.T) {
	groups := library.PackPartitions([]int64{10, 10, 100, 10, 10, 100}, 40)
	// Sequential greedy: [0,1] [2] [3,4] [5].
	want := [][]int{{0, 1}, {2}, {3, 4}, {5}}
	if len(groups) != len(want) {
		t.Fatalf("groups = %v", groups)
	}
	for i := range want {
		if len(groups[i]) != len(want[i]) {
			t.Fatalf("group %d = %v, want %v", i, groups[i], want[i])
		}
		for j := range want[i] {
			if groups[i][j] != want[i][j] {
				t.Fatalf("group %d = %v, want %v", i, groups[i], want[i])
			}
		}
	}
	// Degenerates.
	if g := library.PackPartitions(nil, 10); len(g) != 1 {
		t.Fatalf("empty input groups = %v", g)
	}
	if g := library.PackPartitions([]int64{5}, 0); len(g) != 1 {
		t.Fatalf("zero target groups = %v", g)
	}
}

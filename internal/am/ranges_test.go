package am

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/plugin"
	"tez/internal/runtime"
)

// bucketProducer writes a deterministic, skewed bucket layout through a
// range partitioner: bucket b receives bucketWeights[b] rows per producer
// task, each a two-byte key and a bucketValueLen-byte value.
type bucketProducer struct{ ctx *runtime.Context }

// Two heavy buckets side by side, six tiny ones: an even split by count
// puts both heavies in the first of two tasks.
var bucketWeights = []int{100, 100, 1, 1, 1, 1, 1, 1}

const bucketValueLen = 100

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
			if err := kw.Write(key, []byte(fmt.Sprintf("%0*d", bucketValueLen, i))); err != nil {
				return err
			}
		}
	}
	return nil
}
func (p *bucketProducer) Close() error { return nil }

// bucketConsumer writes, to every output it has, one record per bucket
// it read: key "k<bucket>@<task>", value the bucket's row count.
type bucketConsumer struct{ ctx *runtime.Context }

func (p *bucketConsumer) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *bucketConsumer) Run(in map[string]runtime.Input, out map[string]runtime.Output) error {
	rd, err := in["producer"].Reader()
	if err != nil {
		return err
	}
	g := rd.(runtime.GroupedKVReader)
	var kws []runtime.KVWriter
	for _, o := range out {
		w, err := o.Writer()
		if err != nil {
			return err
		}
		kws = append(kws, w.(runtime.KVWriter))
	}
	for g.Next() {
		key := fmt.Appendf(nil, "%s@%d", g.Key(), p.ctx.Meta.Task)
		for _, kw := range kws {
			if err := kw.Write(key, []byte(strconv.Itoa(len(g.Values())))); err != nil {
				return err
			}
		}
	}
	return g.Err()
}
func (p *bucketConsumer) Close() error { return nil }

func registerBucketProcessors() {
	runtime.RegisterProcessor("amtest.bucket_prod", func() runtime.Processor { return &bucketProducer{} })
	runtime.RegisterProcessor("amtest.bucket_cons", func() runtime.Processor { return &bucketConsumer{} })
}

// bucketEdge range-partitions so that bucket b is key "k<b>".
func bucketEdge() dag.EdgeProperty {
	var points [][]byte
	for b := 1; b < len(bucketWeights); b++ {
		points = append(points, []byte(fmt.Sprintf("k%d", b-1)))
	}
	return library.OrderedEdge(library.OrderedPartitionedConfig{
		Partitioner: library.PartitionerSpec{Kind: "range", Points: points},
	})
}

// evenSplitMax is the heaviest range of the even split by count the
// shuffle manager used to cut: the first len(sizes)%n ranges one partition
// longer.
func evenSplitMax(sizes []int64, n int) int64 {
	k, rem := len(sizes)/n, len(sizes)%n
	var heaviest int64
	for d, start := 0, 0; d < n; d++ {
		end := start + k
		if d < rem {
			end++
		}
		var sum int64
		for _, s := range sizes[start:end] {
			sum += s
		}
		heaviest = max(heaviest, sum)
		start = end
	}
	return heaviest
}

// TestDynamicallyPartitionedHashJoin is §5.2's dynamically partitioned
// hash join on the default manager and the built-in edge: producers
// bucket into 8 range partitions of very skewed sizes; the shuffle
// manager, once every producer has reported, shrinks the join to the
// tasks the bytes need and cuts the buckets into ranges by their measured
// sizes — the two heavy neighbours land in different tasks, which an even
// split by count would not do — and the join-side counts come out exactly
// right.
func TestDynamicallyPartitionedHashJoin(t *testing.T) {
	registerBucketProcessors()
	plat := newTestPlatform(4)
	defer plat.Stop()

	const producers = 2
	d := dag.New("dphj")
	prod := d.AddVertex("producer", plugin.Desc("amtest.bucket_prod", nil), producers)
	cons := d.AddVertex("join", plugin.Desc("amtest.bucket_cons", nil), len(bucketWeights))
	cons.Sinks = []dag.DataSink{library.DFSSink("sink", "/out/dphj")}
	d.Connect(prod, cons, bucketEdge())

	res, err := RunDAG(plat, Config{Name: "dphj", SlowStartMin: 1, SlowStartMax: 1}, d)
	if err != nil || res.Status != DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	if res.Counters.Get("PARALLELISM_RECONFIGURED") == 0 {
		t.Fatal("vertex was never reconfigured")
	}

	// Every key's total must be weights[b] × producers, read by one task.
	taskOf := map[int]int{}
	for key, n := range readCounts(t, plat, "/out/dphj") {
		name, task, _ := strings.Cut(key, "@")
		b, _ := strconv.Atoi(strings.TrimPrefix(name, "k"))
		if _, dup := taskOf[b]; dup {
			t.Fatalf("bucket %s read by two tasks", name)
		}
		taskOf[b], _ = strconv.Atoi(task)
		if n != bucketWeights[b]*producers {
			t.Fatalf("bucket %s = %d, want %d", name, n, bucketWeights[b]*producers)
		}
	}
	if len(taskOf) != len(bucketWeights) {
		t.Fatalf("read %d buckets, want %d", len(taskOf), len(bucketWeights))
	}
	joins := int(res.Counters.Get("TASKS_SUCCEEDED")) - producers
	if joins < 2 || joins >= len(bucketWeights) {
		t.Fatalf("join tasks = %d, want shrunk to 2..7", joins)
	}
	if taskOf[0] == taskOf[1] {
		t.Fatalf("both heavy buckets read by task %d", taskOf[0])
	}
	sizes := make([]int64, len(bucketWeights))
	taskBytes := make([]int64, joins)
	for b, w := range bucketWeights {
		sizes[b] = int64(w * producers * (2 + bucketValueLen))
		taskBytes[taskOf[b]] += sizes[b]
	}
	if got, even := slices.Max(taskBytes), evenSplitMax(sizes, joins); got > even {
		t.Fatalf("largest join task read %d bytes, the even split's %d", got, even)
	}
}

// checkRanges holds one cut to what balancedRanges promises.
func checkRanges(sizes []int64, n int) error {
	starts := balancedRanges(sizes, n)
	if len(starts) != n || starts[0] != 0 {
		return fmt.Errorf("starts %v for %d ranges", starts, n)
	}
	for d := 1; d < n; d++ {
		if starts[d] <= starts[d-1] || starts[d] >= len(sizes) {
			return fmt.Errorf("starts %v: range %d empty or past %d partitions", starts, d, len(sizes))
		}
	}
	if again := balancedRanges(sizes, n); !slices.Equal(again, starts) {
		return fmt.Errorf("cut %v, then %v", starts, again)
	}
	var heaviest int64
	for d := range starts {
		end := len(sizes)
		if d+1 < n {
			end = starts[d+1]
		}
		var sum int64
		for _, s := range sizes[starts[d]:end] {
			sum += s
		}
		heaviest = max(heaviest, sum)
	}
	if even := evenSplitMax(sizes, n); heaviest > even {
		return fmt.Errorf("starts %v: heaviest range %d > even split's %d", starts, heaviest, even)
	}
	if len(sizes) <= 10 {
		if best := bestHeaviest(sizes, n); heaviest != best {
			return fmt.Errorf("starts %v: heaviest range %d, best cut's %d", starts, heaviest, best)
		}
	}
	return nil
}

// bestHeaviest is the lightest heaviest range over every cut of sizes
// into n contiguous non-empty ranges, by exhaustive recursion.
func bestHeaviest(sizes []int64, n int) int64 {
	if n == 1 {
		var sum int64
		for _, s := range sizes {
			sum += s
		}
		return sum
	}
	best := int64(-1)
	var first int64
	for end := 1; end <= len(sizes)-(n-1); end++ {
		first += sizes[end-1]
		if h := max(first, bestHeaviest(sizes[end:], n-1)); best < 0 || h < best {
			best = h
		}
	}
	return best
}

// Property: for random size vectors — all zero, one dominant partition,
// small and large sizes — and every n from 1 to P, the cut is n non-empty
// contiguous ranges covering [0, P), deterministic, its heaviest range no
// heavier than the even split's, and on small P as light as any cut's.
func TestBalancedRanges(t *testing.T) {
	f := func(seed int64, pRaw, shape uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]int64, int(pRaw%40)+1)
		if len(sizes) > 10 && shape%2 == 0 {
			sizes = sizes[:len(sizes)%10+1] // small enough to brute-force
		}
		for p := range sizes {
			switch shape % 4 {
			case 0: // all zero
			case 1:
				sizes[p] = rng.Int63n(10)
			case 2:
				sizes[p] = rng.Int63n(1 << 40)
			case 3:
				sizes[p] = rng.Int63n(3)
			}
		}
		if shape%3 == 0 {
			sizes[rng.Intn(len(sizes))] += 1 << 30 // one dominant partition
		}
		for n := 1; n <= len(sizes); n++ {
			if err := checkRanges(sizes, n); err != nil {
				t.Logf("sizes %v: %v", sizes, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// tailDown fails every tailGate attempt while set.
var tailDown atomic.Bool

// tailGate counts the groups it reads into the sink, or fails while
// tailDown is set.
type tailGate struct{}

func (p *tailGate) Initialize(*runtime.Context) error { return nil }
func (p *tailGate) Run(in map[string]runtime.Input, out map[string]runtime.Output) error {
	if tailDown.Load() {
		return fmt.Errorf("environment down")
	}
	rd, err := in["join"].Reader()
	if err != nil {
		return err
	}
	g := rd.(runtime.GroupedKVReader)
	groups := 0
	for g.Next() {
		groups++
	}
	if err := g.Err(); err != nil {
		return err
	}
	w, err := out["sink"].Writer()
	if err != nil {
		return err
	}
	return w.(runtime.KVWriter).Write([]byte("groups"), []byte(strconv.Itoa(groups)))
}
func (p *tailGate) Close() error { return nil }

// TestRecoveredRangesRouteAlike: a consumer auto-reduced into uneven
// ranges succeeds and is checkpointed, then its own consumer fails the
// DAG. A second AM recovers it with the same ranges, so its in-edge routes
// every (source task, partition) exactly as the first AM's did — a task of
// it re-executed after a node loss reads what its siblings did not.
func TestRecoveredRangesRouteAlike(t *testing.T) {
	registerBucketProcessors()
	runtime.RegisterProcessor("amtest.tail_gate", func() runtime.Processor { return &tailGate{} })
	plat := newTestPlatform(3)
	defer plat.Stop()

	build := func() *dag.DAG {
		d := dag.New("recover-ranges")
		prod := d.AddVertex("producer", plugin.Desc("amtest.bucket_prod", nil), 2)
		join := d.AddVertex("join", plugin.Desc("amtest.bucket_cons", nil), len(bucketWeights))
		tail := d.AddVertex("tail", plugin.Desc("amtest.tail_gate", nil), 1)
		tail.Sinks = []dag.DataSink{library.DFSSink("sink", "/out/recover-ranges")}
		d.Connect(prod, join, bucketEdge())
		d.Connect(join, tail, library.OrderedEdge(library.OrderedPartitionedConfig{}))
		return d
	}
	// Slow start at 1: the join cuts its ranges on every producer's sizes,
	// and the tail starts only once the join succeeded and was
	// checkpointed.
	cfg := Config{Name: "am1", CheckpointPath: "/_cp_ranges", MaxTaskAttempts: 1, SlowStartMin: 1, SlowStartMax: 1}
	// routing reads the join's ranges and its in-edge's routes, indexed
	// [source task][partition].
	routing := func(s *Session, h *DAGRun) (ranges []int, routes [][]map[int]int) {
		onLoop(s, func() {
			ranges = slices.Clone(h.run.vertices["join"].ranges)
			es := h.run.findEdge("producer", "join")
			for src := 0; src < es.from.parallelism; src++ {
				var row []map[int]int
				for p := 0; p < es.mgr.NumSourceTaskPhysicalOutputs(src); p++ {
					row = append(row, es.mgr.Route(src, p))
				}
				routes = append(routes, row)
			}
		})
		return ranges, routes
	}

	tailDown.Store(true)
	s1 := NewSession(plat, cfg)
	h1, err := s1.Submit(build())
	if err != nil {
		t.Fatal(err)
	}
	if res := h1.Wait(); res.Status != DAGFailed {
		t.Fatalf("first run: %v %v", res.Status, res.Err)
	}
	ranges1, routes1 := routing(s1, h1)
	s1.Close()
	if !slices.Contains(ranges1, 1) {
		t.Fatalf("join ranges %v, want the heavy buckets 0 and 1 apart", ranges1)
	}

	tailDown.Store(false)
	cfg.Name = "am2"
	s2 := NewSession(plat, cfg)
	defer s2.Close()
	h2, err := s2.Recover(build())
	if err != nil {
		t.Fatal(err)
	}
	res2 := h2.Wait()
	if res2.Status != DAGSucceeded {
		t.Fatalf("recovered run: %v %v", res2.Status, res2.Err)
	}
	if got := res2.Counters.Get("VERTICES_RECOVERED"); got != 2 {
		t.Fatalf("VERTICES_RECOVERED = %d, want producer and join", got)
	}
	if got := res2.Counters.Get("TASKS_SUCCEEDED"); got != 1 {
		t.Fatalf("recovered run executed %d tasks, want the tail's one", got)
	}
	ranges2, routes2 := routing(s2, h2)
	if !slices.Equal(ranges2, ranges1) {
		t.Fatalf("recovered ranges %v, first AM's %v", ranges2, ranges1)
	}
	if len(routes2) != len(routes1) {
		t.Fatalf("recovered edge has %d source tasks, first AM's %d", len(routes2), len(routes1))
	}
	for src := range routes1 {
		if !slices.EqualFunc(routes1[src], routes2[src], maps.Equal) {
			t.Fatalf("source task %d routes %v, first AM routed %v", src, routes2[src], routes1[src])
		}
	}
	if counts := readCounts(t, plat, "/out/recover-ranges"); counts["groups"] != len(bucketWeights) {
		t.Fatalf("tail read %v, want %d groups", counts, len(bucketWeights))
	}
}

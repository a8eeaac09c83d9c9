package am

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tez/internal/chaos"
	"tez/internal/cluster"
	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/plugin"
	"tez/internal/runtime"
	"tez/internal/shuffle"
)

// failOnSickNode fails every execution placed on node-000 and succeeds
// anywhere else — a sick-but-alive machine.
type failOnSickNode struct{ ctx *runtime.Context }

func (p *failOnSickNode) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *failOnSickNode) Run(_ map[string]runtime.Input, out map[string]runtime.Output) error {
	if p.ctx.Services.Node == "node-000" {
		return fmt.Errorf("sick node %s", p.ctx.Services.Node)
	}
	w, err := out["sink"].Writer()
	if err != nil {
		return err
	}
	return w.(runtime.KVWriter).Write([]byte(fmt.Sprintf("t%d", p.ctx.Meta.Task)), []byte("ok"))
}
func (p *failOnSickNode) Close() error { return nil }

func sickNodeDAG(name, out string) *dag.DAG {
	d := dag.New(name)
	v := d.AddVertex("v", plugin.Desc("amtest.sicknode", nil), 1)
	// Pin the task to the sick node: locality preference plus container
	// reuse keep every retry there until blacklisting intervenes.
	v.LocationHints = [][]string{{"node-000"}}
	v.Sinks = []dag.DataSink{library.DFSSink("sink", out)}
	return d
}

// TestBlacklistRescuesDAGFromSickNode is the tentpole acceptance check: a
// single permanently failing node exhausts MaxTaskAttempts when the
// blacklist threshold is out of reach (the seed behaviour), and with a
// reachable one the same
// schedule succeeds because retries are steered off the sick machine
// before the attempt budget runs out.
func TestBlacklistRescuesDAGFromSickNode(t *testing.T) {
	runtime.RegisterProcessor("amtest.sicknode", func() runtime.Processor { return &failOnSickNode{} })

	t.Run("without blacklisting the DAG dies", func(t *testing.T) {
		plat := newTestPlatform(4)
		defer plat.Stop()
		res, err := RunDAG(plat, Config{
			Name:            "nohealth",
			MaxTaskAttempts: 3,
			// One task × 3 attempts never reaches 1000 failures.
			NodeMaxTaskFailures: 1000,
		}, sickNodeDAG("sick-off", "/out/sick-off"))
		if err == nil || res.Status != DAGFailed {
			t.Fatalf("expected MaxTaskAttempts exhaustion, got %v %v", res.Status, err)
		}
		if got := res.Counters.Get("ATTEMPTS_FAILED"); got != 3 {
			t.Fatalf("ATTEMPTS_FAILED = %d, want 3", got)
		}
	})

	t.Run("blacklisting steers retries off the node", func(t *testing.T) {
		plat := newTestPlatform(4)
		defer plat.Stop()
		s := NewSession(plat, Config{
			Name:                "health",
			MaxTaskAttempts:     3,
			NodeMaxTaskFailures: 2,
		})
		defer s.Close()
		res, err := s.Run(sickNodeDAG("sick-on", "/out/sick-on"))
		if err != nil || res.Status != DAGSucceeded {
			t.Fatalf("%v %v", res.Status, err)
		}
		if got := res.Counters.Get("ATTEMPTS_FAILED"); got != 2 {
			t.Fatalf("ATTEMPTS_FAILED = %d, want exactly the blacklist threshold 2", got)
		}
		if res.Counters.Get("NODES_BLACKLISTED") != 1 {
			t.Fatalf("NODES_BLACKLISTED = %d", res.Counters.Get("NODES_BLACKLISTED"))
		}
		report := s.NodeHealth()
		if report.BlacklistedCount() != 1 {
			t.Fatalf("blacklisted count = %d, report:\n%s", report.BlacklistedCount(), report)
		}
		if report[0].Node != "node-000" || report[0].TaskFailures != 2 || report[0].BlacklistEnters != 1 {
			t.Fatalf("unexpected report:\n%s", report)
		}
	})
}

// TestBlacklistDecayRestoresNode: after blacklistDecay the node is
// un-blacklisted with a clean slate. Driven by the injectable clock — no
// sleeping, and the decay boundary is tested exactly.
func TestBlacklistDecayRestoresNode(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := Config{
		NodeMaxTaskFailures: 1,
		Clock:               func() time.Time { return now },
	}.withDefaults()
	h := newNodeHealth(cfg, 8)
	if !h.taskFailed("n1") {
		t.Fatal("n1 not blacklisted at threshold 1")
	}
	if !h.isBlacklisted("n1") || len(h.excludedIDs()) != 1 {
		t.Fatal("n1 should be excluded")
	}
	now = now.Add(blacklistDecay - time.Millisecond)
	if !h.isBlacklisted("n1") {
		t.Fatal("n1 decayed before blacklistDecay elapsed")
	}
	now = now.Add(time.Millisecond)
	if h.isBlacklisted("n1") {
		t.Fatal("n1 still blacklisted after decay")
	}
	rep := h.report()
	if len(rep) != 1 || rep[0].BlacklistExits != 1 || rep[0].TaskFailures != 0 {
		t.Fatalf("decay did not reset the record: %+v", rep)
	}
}

// TestBlacklistCapRefusesExcess: the maxBlacklistFraction cap keeps a
// cluster-wide problem from excluding more than its share of nodes.
func TestBlacklistCapRefusesExcess(t *testing.T) {
	cfg := Config{NodeMaxTaskFailures: 1}.withDefaults()
	h := newNodeHealth(cfg, 3) // cap = max(1, floor(0.33*3)) = 1
	if !h.taskFailed("n1") {
		t.Fatal("first node should blacklist")
	}
	if h.fetchFailed("n2") || h.taskFailed("n3") {
		t.Fatal("cap exceeded: more than 1 of 3 nodes blacklisted")
	}
	if h.isBlacklisted("n2") || h.isBlacklisted("n3") {
		t.Fatal("n2/n3 must stay schedulable at the cap")
	}
	if got := len(h.excludedIDs()); got != 1 {
		t.Fatalf("excluded = %d, want 1", got)
	}
}

// gatedFail coordinates the node-loss race: attempt 0 reports its node,
// then blocks until released, then fails; later attempts succeed.
type gatedFail struct{ ctx *runtime.Context }

var (
	gateNodeCh    chan string
	gateReleaseCh chan struct{}
)

func (p *gatedFail) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *gatedFail) Run(_ map[string]runtime.Input, out map[string]runtime.Output) error {
	if p.ctx.Meta.Attempt == 0 {
		gateNodeCh <- p.ctx.Services.Node
		<-gateReleaseCh
		return fmt.Errorf("process crashed as the node went down")
	}
	w, err := out["sink"].Writer()
	if err != nil {
		return err
	}
	return w.(runtime.KVWriter).Write([]byte("k"), []byte("ok"))
}
func (p *gatedFail) Close() error { return nil }

// TestAttemptFailureRacingNodeLossIsCasualty is the satellite-2 regression
// test: a genuine task error whose node-failure notification is already in
// the mailbox must be downgraded to a casualty — no MaxTaskAttempts
// charge, no node-health charge. The mailbox is FIFO, so putting
// msgNodeFailed before releasing the processor guarantees the ordering.
func TestAttemptFailureRacingNodeLossIsCasualty(t *testing.T) {
	runtime.RegisterProcessor("amtest.gatedfail", func() runtime.Processor { return &gatedFail{} })
	gateNodeCh = make(chan string, 1)
	gateReleaseCh = make(chan struct{})

	plat := newTestPlatform(2)
	defer plat.Stop()
	d := dag.New("race")
	v := d.AddVertex("v", plugin.Desc("amtest.gatedfail", nil), 1)
	v.Sinks = []dag.DataSink{library.DFSSink("sink", "/out/race")}
	// MaxTaskAttempts 1: if the raced failure counted, the DAG would die.
	s := NewSession(plat, Config{Name: "t", MaxTaskAttempts: 1, NodeMaxTaskFailures: 1})
	defer s.Close()
	h, err := s.Submit(d)
	if err != nil {
		t.Fatal(err)
	}
	node := <-gateNodeCh
	// The node-failure notification lands in the mailbox first...
	h.run.mb.Put(msgNodeFailed{node: cluster.NodeID(node)})
	// ...then the attempt's failure message arrives behind it.
	close(gateReleaseCh)

	res := h.Wait()
	if res.Err != nil || res.Status != DAGSucceeded {
		t.Fatalf("%v %v", res.Status, res.Err)
	}
	if got := res.Counters.Get("ATTEMPTS_KILLED_NODE_LOST"); got != 1 {
		t.Fatalf("ATTEMPTS_KILLED_NODE_LOST = %d, want 1", got)
	}
	if got := res.Counters.Get("ATTEMPTS_FAILED"); got != 0 {
		t.Fatalf("ATTEMPTS_FAILED = %d, raced failure was charged", got)
	}
	if rep := s.NodeHealth(); rep.BlacklistedCount() != 0 {
		t.Fatalf("raced failure polluted node health:\n%s", rep)
	}
}

// TestDecommissionDrainDoesNotBlacklist is the satellite-3 test: a planned
// drain re-executes ephemeral-output producers but never charges node
// health — the machine did nothing wrong.
func TestDecommissionDrainDoesNotBlacklist(t *testing.T) {
	runtime.RegisterProcessor("amtest.emit5", func() runtime.Processor { return &emitProducer{} })
	runtime.RegisterProcessor("amtest.slowreduce2", func() runtime.Processor { return &slowReduce{} })
	plat := newTestPlatform(4)
	defer plat.Stop()

	d := dag.New("drain")
	prod := d.AddVertex("producer", plugin.Desc("amtest.emit5", nil), 2)
	cons := d.AddVertex("consumer", plugin.Desc("amtest.slowreduce2", nil), 1)
	cons.Sinks = []dag.DataSink{library.DFSSink("sink", "/out/drain")}
	d.Connect(prod, cons, library.OrderedEdge(library.OrderedPartitionedConfig{}))

	s := NewSession(plat, Config{Name: "t"})
	defer s.Close()
	h, err := s.Submit(d)
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	deadline := time.Now().Add(5 * time.Second)
	for victim == "" && time.Now().Before(deadline) {
		for task := 0; task < 2; task++ {
			id := shuffle.OutputID{DAG: h.ID(), Vertex: "producer", Name: "consumer", Task: task, Attempt: 0}
			if node, ok := plat.Shuffle.Node(id); ok {
				victim = node
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	if victim == "" {
		t.Fatal("producer output never appeared")
	}
	plat.Decommission(cluster.NodeID(victim))

	res := h.Wait()
	if res.Err != nil || res.Status != DAGSucceeded {
		t.Fatalf("%v %v", res.Status, res.Err)
	}
	if res.Counters.Get("TASKS_REEXECUTED") == 0 {
		t.Fatal("drain did not re-execute the ephemeral-output producer")
	}
	if res.Counters.Get("NODE_DECOMMISSIONS_OBSERVED") == 0 {
		t.Fatal("drain not counted as a decommission")
	}
	if got := res.Counters.Get("NODE_FAILURES_OBSERVED"); got != 0 {
		t.Fatalf("drain miscounted as %d unplanned failures", got)
	}
	rep := s.NodeHealth()
	if rep.BlacklistedCount() != 0 {
		t.Fatalf("drain contributed to blacklisting:\n%s", rep)
	}
	for _, n := range rep {
		if n.TaskFailures != 0 {
			t.Fatalf("drain charged task failures to %s:\n%s", n.Node, rep)
		}
	}
	if counts := readCounts(t, plat, "/out/drain"); counts["k"] != 2 {
		t.Fatalf("output = %v", counts)
	}
}

// TestChaosAMCrashAndRecovery: the chaos plane kills the AM after the
// first vertex completion; a fresh AM recovers the checkpoint and finishes
// without re-running the completed vertex.
func TestChaosAMCrashAndRecovery(t *testing.T) {
	plat := newTestPlatform(3)
	defer plat.Stop()
	writeLines(t, plat, "/in/amcrash", []string{"a b a c b a"})
	build := func() *dag.DAG { return wordCountDAG("amcrash", "/in/amcrash", "/out/amcrash", 1) }

	plane := chaos.New(11, chaos.Spec{AMCrashAfterVertexCompletions: 1})
	s1 := NewSession(plat, Config{Name: "am1", CheckpointPath: "/_cp_chaos", Chaos: plane})
	res, err := s1.Run(build())
	s1.Close()
	if err == nil || res.Status != DAGFailed || !errors.Is(res.Err, chaos.ErrAMCrash) {
		t.Fatalf("expected injected AM crash, got %v %v", res.Status, err)
	}

	s2 := NewSession(plat, Config{Name: "am2", CheckpointPath: "/_cp_chaos"})
	defer s2.Close()
	h, err := s2.Recover(build())
	if err != nil {
		t.Fatal(err)
	}
	res2 := h.Wait()
	if res2.Err != nil || res2.Status != DAGSucceeded {
		t.Fatalf("recovered run: %v %v", res2.Status, res2.Err)
	}
	if res2.Counters.Get("VERTICES_RECOVERED") == 0 {
		t.Fatal("nothing recovered from the checkpoint")
	}
	counts := readCounts(t, plat, "/out/amcrash")
	if counts["a"] != 3 || counts["b"] != 2 || counts["c"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

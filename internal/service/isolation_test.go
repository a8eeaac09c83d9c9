// Tenant-isolation chaos proof: seeded fault schedules scoped to tenant A
// (exec, launch and fetch faults keyed on A's tenant tag and run-id
// prefix) while tenant B runs the same wordcount workload clean on the
// shared cluster. For every seed, B's results must be byte-identical to a
// fault-free baseline and B's p99 latency must stay within the documented
// bound (max(25× clean p99, 1s) — generous for CI noise, tight enough to
// prove B is not starved by A's retry storms).
package service_test

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tez/internal/am"
	"tez/internal/chaos"
	"tez/internal/dag"
	"tez/internal/dfs"
	"tez/internal/library"
	"tez/internal/platform"
	"tez/internal/plugin"
	tezrt "tez/internal/runtime"
	"tez/internal/service"
)

func init() {
	library.RegisterMapFunc("svciso.tokenize", func(_, line []byte, out tezrt.KVWriter) error {
		for _, w := range strings.Fields(string(line)) {
			if err := out.Write([]byte(w), []byte("1")); err != nil {
				return err
			}
		}
		return nil
	})
	library.RegisterReduceFunc("svciso.sum", func(key []byte, values [][]byte, out tezrt.KVWriter) error {
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

func seedWords(t *testing.T, plat *platform.Platform) {
	t.Helper()
	wr, err := library.CreateRecordFile(plat.FS, "/in/words", plat.FS.LiveNodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		line := fmt.Sprintf("tenant isolation dag %d vertex task %d shuffle fair share", i%5, i%11)
		if err := wr.Write(nil, []byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
}

// wcDAG builds a two-vertex wordcount over /in/words writing to outPath.
func wcDAG(name, outPath string) *dag.DAG {
	d := dag.New(name)
	tok := d.AddVertex("tokenize", plugin.Desc(library.MapProcessorName, library.FuncConfig{Func: "svciso.tokenize"}), -1)
	tok.Sources = []dag.DataSource{library.DFSSource("words", []string{"/in/words"}, 0)}
	sum := d.AddVertex("sum", plugin.Desc(library.ReduceProcessorName, library.FuncConfig{Func: "svciso.sum"}), 2)
	sum.Sinks = []dag.DataSink{library.DFSSink("counts", outPath)}
	d.Connect(tok, sum, library.OrderedEdge(library.OrderedPartitionedConfig{}))
	return d
}

// canonCounts reads a wordcount output directory into a canonical
// "word=count" line set: the byte-comparison form (part-file layout is
// scheduling-dependent; the aggregated data must not be).
func canonCounts(t *testing.T, fs *dfs.FileSystem, out string) string {
	t.Helper()
	counts := map[string]int{}
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
			counts[string(r.Key())] += n
		}
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	}
	lines := make([]string, 0, len(counts))
	for w, n := range counts {
		lines = append(lines, fmt.Sprintf("%s=%d", w, n))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

const isoBDAGs = 5

// runTenantB submits tenant B's wordcount workload and returns the
// canonical result of each DAG plus B's p99 latency.
func runTenantB(t *testing.T, svc *service.Service, plat *platform.Platform, tag string) ([]string, time.Duration) {
	t.Helper()
	var results []string
	for i := 0; i < isoBDAGs; i++ {
		out := fmt.Sprintf("/out/b-%s-%d", tag, i)
		sub, err := svc.Submit("B", wcDAG("wc", out))
		if err != nil {
			t.Fatalf("tenant B submit %d: %v", i, err)
		}
		if res := sub.Wait(); res.Status != am.DAGSucceeded {
			t.Fatalf("tenant B DAG %d: %v (%v)", i, res.Status, res.Err)
		}
		results = append(results, canonCounts(t, plat.FS, out))
	}
	var p99 time.Duration
	for _, ts := range svc.Snapshot().Tenants {
		if ts.Tenant == "B" {
			p99 = ts.Latency.P99
		}
	}
	return results, p99
}

func isoServiceConfig() service.Config {
	return service.Config{
		Tenants: []service.TenantConfig{
			{Name: "A", Weight: 1, Workers: 2, QueueDepth: 8},
			{Name: "B", Weight: 1, Workers: 2, QueueDepth: 8},
		},
		Session: am.Config{MaxTaskAttempts: 8},
	}
}

// TestTenantIsolationUnderChaos: five seeded fault schedules scoped to
// tenant A; tenant B's results stay byte-identical to the fault-free
// baseline and B's p99 stays inside the documented bound.
func TestTenantIsolationUnderChaos(t *testing.T) {
	// Fault-free baseline: tenant B alone on a clean platform.
	basePlat := platform.New(platform.Fast(8))
	seedWords(t, basePlat)
	baseSvc := service.New(basePlat, isoServiceConfig())
	baseline, cleanP99 := runTenantB(t, baseSvc, basePlat, "base")
	baseSvc.Close()
	basePlat.Stop()
	for i, r := range baseline {
		if r == "" {
			t.Fatalf("baseline DAG %d produced no output", i)
		}
		if r != baseline[0] {
			t.Fatalf("baseline not deterministic: DAG %d differs", i)
		}
	}
	// Documented isolation bound (DESIGN.md §11): under tenant-A chaos,
	// B's p99 must stay within max(25× clean p99, 1s).
	bound := 25 * cleanP99
	if bound < time.Second {
		bound = time.Second
	}

	for _, seed := range []int64{11, 12, 13, 14, 15} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			plane := chaos.New(seed, chaos.Spec{
				ScopeTenantPrefix:  "A",
				TransientFetchProb: 0.25,
				FetchDataLostProb:  0.05,
				LaunchFailProb:     0.08,
				TaskFaultProb:      0.08,
				StepSpacing:        2,
			})
			cfg := platform.Fast(8)
			cfg.Chaos = plane
			plat := platform.New(cfg)
			defer plat.Stop()
			seedWords(t, plat)
			svc := service.New(plat, isoServiceConfig())
			defer svc.Close()

			// Tenant A hammers the cluster with the same workload, eating
			// scoped faults, until B's run completes.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < 2; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						sub, err := svc.Submit("A", wcDAG("wc", fmt.Sprintf("/out/a-%d-%d", c, i)))
						if err != nil {
							time.Sleep(time.Millisecond)
							continue
						}
						sub.Wait() // A may fail under faults; isolation only protects B
					}
				}(c)
			}

			results, p99 := runTenantB(t, svc, plat, fmt.Sprintf("s%d", seed))
			close(stop)
			wg.Wait()

			for i, r := range results {
				if r != baseline[0] {
					t.Errorf("seed %d: tenant B DAG %d diverged from fault-free baseline", seed, i)
				}
			}
			if p99 > bound {
				t.Errorf("seed %d: tenant B p99 %v exceeds isolation bound %v (clean p99 %v)", seed, p99, bound, cleanP99)
			}
			var injected int64
			for _, n := range plane.Injected() {
				injected += n
			}
			if injected == 0 {
				t.Errorf("seed %d: no faults injected into tenant A — schedule proves nothing", seed)
			}
			t.Logf("seed %d: %d faults into A, B p99 %v (clean %v, bound %v)", seed, injected, p99, cleanP99, bound)
		})
	}
}

// fault_tolerance: a guided tour of §4.3. The same word-count DAG is run
// three times on a secure cluster while we injure the platform:
//
//  1. a whole machine dies mid-run — its completed map outputs are lost,
//     the AM proactively re-executes them and the DAG still succeeds;
//
//  2. an environment-stuck straggler is rescued by speculation;
//
//  3. the AM itself "dies" between the two stages of a DAG and a fresh AM
//     recovers from the checkpoint, re-running only the unfinished stage.
//
//     go run ./examples/fault_tolerance
package main

import (
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"tez/internal/am"
	"tez/internal/cluster"
	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/runtime"
	"tez/internal/shuffle"
)

func init() {
	library.RegisterMapFunc("ft.tokenize", func(_, line []byte, out runtime.KVWriter) error {
		for _, w := range strings.Fields(string(line)) {
			if err := out.Write([]byte(w), []byte("1")); err != nil {
				return err
			}
		}
		return nil
	})
	library.RegisterReduceFunc("ft.sum", func(k []byte, vs [][]byte, out runtime.KVWriter) error {
		return out.Write(k, []byte(strconv.Itoa(len(vs))))
	})
	// A reduce that dawdles long enough for us to shoot a node.
	library.RegisterReduceFunc("ft.slowsum", func(k []byte, vs [][]byte, out runtime.KVWriter) error {
		time.Sleep(10 * time.Millisecond)
		return out.Write(k, []byte(strconv.Itoa(len(vs))))
	})
	runtime.RegisterProcessor("ft.straggler", func() runtime.Processor { return &stuckOnce{} })
}

// stuckOnce hangs the first attempt of task 0 (an environment-induced
// straggler); every other attempt finishes instantly.
type stuckOnce struct{ ctx *runtime.Context }

func (p *stuckOnce) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *stuckOnce) Run(_ map[string]runtime.Input, out map[string]runtime.Output) error {
	if p.ctx.Meta.Task == 0 && p.ctx.Meta.Attempt == 0 {
		select {
		case <-p.ctx.Stop:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("straggler hit its timeout")
		}
	}
	w, err := out["sink"].Writer()
	if err != nil {
		return err
	}
	return w.(runtime.KVWriter).Write([]byte(fmt.Sprintf("t%d", p.ctx.Meta.Task)), []byte("done"))
}
func (p *stuckOnce) Close() error { return nil }

func wordCount(name, in, out, reduceFn string, reducers int) *dag.DAG {
	d := dag.New(name)
	m := d.AddVertex("map", plugin.Desc(library.MapProcessorName, library.FuncConfig{Func: "ft.tokenize"}), -1)
	m.Sources = []dag.DataSource{library.DFSSource("text", []string{in}, 0)}
	r := d.AddVertex("reduce", plugin.Desc(library.ReduceProcessorName, library.FuncConfig{Func: reduceFn}), reducers)
	r.Sinks = []dag.DataSink{library.DFSSink("counts", out)}
	d.Connect(m, r, library.OrderedEdge(library.OrderedPartitionedConfig{}))
	return d
}

func check(out map[string]int) string {
	if out["tez"] == 400 && out["dag"] == 200 {
		return "output correct"
	}
	return fmt.Sprintf("OUTPUT WRONG: %v", out)
}

func readCounts(plat *platform.Platform, out string) map[string]int {
	res := map[string]int{}
	for _, f := range plat.FS.List(out + "/part-") {
		data, err := plat.FS.ReadFile(f, "")
		if err != nil {
			log.Fatal(err)
		}
		r := library.NewPaddedReader(data)
		for r.Next() {
			n, _ := strconv.Atoi(string(r.Value()))
			res[string(r.Key())] += n
		}
	}
	return res
}

func main() {
	plat := platform.New(platform.Default(6))
	defer plat.Stop()
	plat.EnableSecurity() // §4.3: per-DAG tokens guard intermediate data

	w, err := library.CreateRecordFile(plat.FS, "/in/text", plat.FS.LiveNodes()[0])
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		_ = w.Write(nil, []byte("tez dag tez"))
	}
	_ = w.Close()

	// --- 1. Node failure mid-run -------------------------------------
	fmt.Println("1) whole-node failure during the reduce phase")
	sess := am.NewSession(plat, am.Config{Name: "ft"})
	h, err := sess.Submit(wordCount("wc-nodeloss", "/in/text", "/out/nodeloss", "ft.slowsum", 4))
	if err != nil {
		log.Fatal(err)
	}
	// Kill the node holding the first registered map output.
	var victim string
	for victim == "" {
		id := shuffle.OutputID{DAG: h.ID(), Vertex: "map", Name: "reduce", Task: 0, Attempt: 0}
		if n, ok := plat.Shuffle.Node(id); ok {
			victim = n
		}
		time.Sleep(500 * time.Microsecond)
	}
	plat.FailNode(cluster.NodeID(victim))
	fmt.Printf("   killed %s while reducers were fetching\n", victim)
	res := h.Wait()
	fmt.Printf("   DAG %s; tasks re-executed: %d; %s\n\n",
		res.Status, res.Counters.Get("TASKS_REEXECUTED"), check(readCounts(plat, "/out/nodeloss")))
	sess.Close()

	// --- 2. Straggler + speculation ----------------------------------
	fmt.Println("2) environment-stuck attempt rescued by speculation")
	specSess := am.NewSession(plat, am.Config{
		Name: "ft-spec", Speculation: true,
		SpeculationInterval: 2 * time.Millisecond, SpeculationFactor: 4, SpeculationMinCompleted: 3,
	})
	straggle := dag.New("straggler")
	v := straggle.AddVertex("work", plugin.Desc("ft.straggler", nil), 8)
	v.Sinks = []dag.DataSink{library.DFSSink("sink", "/out/spec")}
	res2, err := specSess.Run(straggle)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   DAG %s in %v (straggler would have taken 5s); speculative attempts: %d\n\n",
		res2.Status, res2.Duration.Round(time.Millisecond),
		res2.Counters.Get("SPECULATIVE_ATTEMPTS"))
	specSess.Close()

	// --- 3. AM failure + recovery ------------------------------------
	fmt.Println("3) AM checkpoint/recovery")
	am1 := am.NewSession(plat, am.Config{Name: "ft-am1", CheckpointPath: "/_cp"})
	d := wordCount("wc-recover", "/in/text", "/out/recover", "ft.slowsum", 4)
	h3, err := am1.Submit(d)
	if err != nil {
		log.Fatal(err)
	}
	// "Crash" the AM once the map vertex has checkpointed.
	for len(plat.FS.List("/_cp/")) == 0 {
		time.Sleep(time.Millisecond)
	}
	h3.Kill("simulated AM crash")
	res3 := h3.Wait()
	am1.Close()
	if res3.Status == am.DAGSucceeded {
		fmt.Println("   (the DAG finished before the simulated crash — nothing to recover)")
		return
	}
	fmt.Println("   first AM crashed after the map vertex completed")

	am2 := am.NewSession(plat, am.Config{Name: "ft-am2", CheckpointPath: "/_cp"})
	defer am2.Close()
	h4, err := am2.Recover(wordCount("wc-recover", "/in/text", "/out/recover", "ft.slowsum", 4))
	if err != nil {
		log.Fatal(err)
	}
	res4 := h4.Wait()
	fmt.Printf("   recovered AM: %s; vertices recovered from checkpoint: %d; %s\n",
		res4.Status, res4.Counters.Get("VERTICES_RECOVERED"), check(readCounts(plat, "/out/recover")))
}

// tez-dag builds a demo DAG (wordcount or a Hive query plan), prints its
// logical structure and physical expansion, runs it, and dumps the
// execution trace — a small debugging/teaching tool for the framework.
//
//	go run ./cmd/tez-dag
//	go run ./cmd/tez-dag -sql "SELECT o_custkey, count(*) AS n FROM orders GROUP BY o_custkey"
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"
	"time"

	"tez/internal/am"
	"tez/internal/dag"
	"tez/internal/data"
	"tez/internal/hive"
	"tez/internal/library"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/relop"
	"tez/internal/runtime"
	"tez/internal/timeline"
)

func init() {
	library.RegisterMapFunc("dagdemo.tokenize", func(_, line []byte, out runtime.KVWriter) error {
		for _, w := range strings.Fields(string(line)) {
			if err := out.Write([]byte(w), []byte("1")); err != nil {
				return err
			}
		}
		return nil
	})
	library.RegisterReduceFunc("dagdemo.sum", func(k []byte, vs [][]byte, out runtime.KVWriter) error {
		return out.Write(k, []byte(strconv.Itoa(len(vs))))
	})
}

func main() {
	sql := flag.String("sql", "", "optional: print and run a Hive query plan instead of wordcount")
	flag.Parse()

	plat := platform.New(platform.Default(4))
	defer plat.Stop()

	var d *dag.DAG
	if *sql != "" {
		tp, err := data.GenTPCH(plat.FS, 400, 1)
		if err != nil {
			log.Fatal(err)
		}
		eng := hive.NewEngine()
		eng.Register(tp.Tables()...)
		roots, err := eng.Plan(*sql, "/out/dag-demo", false)
		if err != nil {
			log.Fatal(err)
		}
		d, err = relop.EmitDAGOnly(relop.Config{DefaultPartitions: 4}, "query", roots)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		w, err := library.CreateRecordFile(plat.FS, "/in/demo", plat.FS.LiveNodes()[0])
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			_ = w.Write(nil, []byte("alpha beta gamma alpha"))
		}
		_ = w.Close()
		d = dag.New("wordcount")
		tok := d.AddVertex("tokenizer", plugin.Desc(library.MapProcessorName, library.FuncConfig{Func: "dagdemo.tokenize"}), -1)
		tok.Sources = []dag.DataSource{library.DFSSource("text", []string{"/in/demo"}, 0)}
		sum := d.AddVertex("summation", plugin.Desc(library.ReduceProcessorName, library.FuncConfig{Func: "dagdemo.sum"}), 4)
		sum.Sinks = []dag.DataSink{library.DFSSink("counts", "/out/dag-demo")}
		d.Connect(tok, sum, library.OrderedEdge(library.OrderedPartitionedConfig{}))
	}

	fmt.Printf("logical DAG %q:\n", d.Name)
	order, err := d.TopoOrder()
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range order {
		v := d.Vertex(name)
		par := "runtime-determined"
		if v.Parallelism > 0 {
			par = fmt.Sprintf("%d tasks", v.Parallelism)
		}
		fmt.Printf("  vertex %-24s processor=%-32s %s", v.Name, v.Processor.Name, par)
		if len(v.Sources) > 0 {
			fmt.Printf("  sources=%d", len(v.Sources))
		}
		if len(v.Sinks) > 0 {
			fmt.Printf("  sinks=%d", len(v.Sinks))
		}
		fmt.Println()
	}
	for _, e := range d.Edges {
		fmt.Printf("  edge   %-24s -> %-22s %s\n", e.From, e.To, e.Property.Movement)
	}

	journal := timeline.New()
	sess := am.NewSession(plat, am.Config{Name: "tez-dag", Timeline: journal})
	defer sess.Close()
	res, err := sess.Run(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexecution: %s in %v\n", res.Status, res.Duration.Round(time.Millisecond))
	fmt.Printf("counters: %s\n\nphysical execution trace:\n", res.Counters)

	// Each attempt's span closes with ATTEMPT_FINISHED; its locality was
	// journalled when it started.
	type attempt struct {
		vertex        string
		task, attempt int
	}
	locality := map[attempt]string{}
	var finished []timeline.Event
	for _, e := range journal.Events() {
		switch e.Type {
		case timeline.AttemptStarted:
			locality[attempt{e.Vertex, e.Task, e.Attempt}] = e.Info
		case timeline.AttemptFinished:
			finished = append(finished, e)
		}
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].Start().Before(finished[j].Start()) })
	for _, e := range finished {
		fmt.Printf("  %-24s task %02d attempt %d  %-11s on %-8s %-10s %6.2fms\n",
			e.Vertex, e.Task, e.Attempt, locality[attempt{e.Vertex, e.Task, e.Attempt}], e.Node, e.Info,
			float64(e.Dur.Microseconds())/1000)
	}
}

// tez-timeline demonstrates the timeline subsystem — the in-process
// analog of the YARN Application Timeline Server (§4.3, §5). It runs a
// wordcount DAG with a journal attached to both the AM and the platform
// substrates (or reads a previously saved journal with -in), prints the
// run's critical path, per-vertex attempt percentiles and container
// swimlanes, and can export the journal as JSONL and as a Chrome
// trace-event file loadable in Perfetto or chrome://tracing.
//
//	go run ./cmd/tez-timeline -trace trace.json -jsonl trace.jsonl
//	go run ./cmd/tez-timeline -chaos-seed 7
//	go run ./cmd/tez-timeline -in trace.jsonl
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"tez/internal/am"
	"tez/internal/chaos"
	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/metrics"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/runtime"
	"tez/internal/timeline"
)

func init() {
	library.RegisterMapFunc("timeline.tokenize", func(_, line []byte, out runtime.KVWriter) error {
		for _, w := range strings.Fields(string(line)) {
			if err := out.Write([]byte(w), []byte("1")); err != nil {
				return err
			}
		}
		return nil
	})
	library.RegisterReduceFunc("timeline.sum", func(k []byte, vs [][]byte, out runtime.KVWriter) error {
		return out.Write(k, []byte(strconv.Itoa(len(vs))))
	})
}

func main() {
	in := flag.String("in", "", "read a saved JSONL journal instead of running a DAG")
	tracePath := flag.String("trace", "", "write a Chrome trace-event file here (open in Perfetto)")
	jsonlPath := flag.String("jsonl", "", "write the raw journal here as JSONL")
	dagID := flag.String("dag", "", "run id to analyse (default: last finished run)")
	nodes := flag.Int("nodes", 4, "simulated cluster size when running")
	lines := flag.Int("lines", 400, "input lines for the wordcount run")
	chaosSeed := flag.Int64("chaos-seed", 0, "when non-zero, inject transient fetch faults with this seed")
	tenant := flag.String("tenant", "", "keep only events attributed to this tenant before analysis and export")
	flag.Parse()

	var events []timeline.Event
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		events, err = timeline.ReadJSONL(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("journal %s: %d events\n\n", *in, len(events))
	} else {
		events = runWordcount(*nodes, *lines, *chaosSeed)
	}

	if *tenant != "" {
		all := len(events)
		events = timeline.FilterTenant(events, *tenant)
		fmt.Printf("tenant %q: %d of %d events\n\n", *tenant, len(events), all)
	}

	analyse(events, *dagID)

	if *jsonlPath != "" {
		f, err := os.Create(*jsonlPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := timeline.WriteJSONL(f, events); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote journal: %s (%d events)\n", *jsonlPath, len(events))
	}
	if *tracePath != "" {
		buf, err := timeline.ChromeTrace(events)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*tracePath, buf, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote Chrome trace: %s (open in Perfetto or chrome://tracing)\n", *tracePath)
	}
}

// runWordcount executes a two-vertex wordcount with the journal attached
// to both the AM (control plane) and the platform (data plane) and
// returns the recorded events.
func runWordcount(nodes, lines int, chaosSeed int64) []timeline.Event {
	j := timeline.New()
	pcfg := platform.Default(nodes)
	pcfg.Timeline = j
	var plane *chaos.Plane
	if chaosSeed != 0 {
		plane = chaos.New(chaosSeed, chaos.Spec{TransientFetchProb: 0.2})
		pcfg.Chaos = plane
	}
	plat := platform.New(pcfg)
	defer plat.Stop()

	w, err := library.CreateRecordFile(plat.FS, "/in/text", plat.FS.LiveNodes()[0])
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < lines; i++ {
		_ = w.Write(nil, []byte("alpha beta gamma delta alpha beta alpha"))
	}
	_ = w.Close()

	d := dag.New("wordcount")
	tok := d.AddVertex("tokenizer", plugin.Desc(library.MapProcessorName, library.FuncConfig{Func: "timeline.tokenize"}), -1)
	tok.Sources = []dag.DataSource{library.DFSSource("text", []string{"/in/text"}, 0)}
	sum := d.AddVertex("summation", plugin.Desc(library.ReduceProcessorName, library.FuncConfig{Func: "timeline.sum"}), 4)
	sum.Sinks = []dag.DataSink{library.DFSSink("counts", "/out/wc")}
	d.Connect(tok, sum, library.OrderedEdge(library.OrderedPartitionedConfig{}))

	amCfg := am.Config{Name: "tez-timeline", Timeline: j, Chaos: plane}
	sess := am.NewSession(plat, amCfg)
	defer sess.Close()
	res, err := sess.Run(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run: %s in %v, %d journal events\n", res.Status, res.Duration.Round(time.Millisecond), j.Len())
	for _, aw := range metrics.AllocWaitReport(res.Counters) {
		fmt.Printf("  alloc wait %-11s count=%-3d mean=%v\n", aw.Locality, aw.Count, aw.Mean.Round(time.Microsecond))
	}
	fmt.Println()
	return j.Events()
}

// analyse prints the critical path, attempt percentiles and container
// swimlanes for one run of the journal.
func analyse(events []timeline.Event, dagID string) {
	if dagID == "" {
		dagID = timeline.LastDAG(events)
	}
	path, err := timeline.CriticalPath(events, dagID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(path)
	wall, total := path.Wall(), path.Total()
	if wall > 0 {
		delta := 100 * float64(total-wall) / float64(wall)
		fmt.Printf("path sum vs wall-clock: %+.2f%%\n\n", delta)
	}

	fmt.Println("attempt percentiles:")
	for _, vs := range timeline.AttemptPercentiles(events, dagID) {
		fmt.Printf("  %s\n", vs)
	}
	fmt.Println("\ncontainer swimlanes:")
	for _, l := range timeline.ContainerLanes(events, dagID) {
		fmt.Printf("  %s\n", l)
	}

	if stats := timeline.EdgeFetchStats(events, dagID); len(stats) > 0 {
		fmt.Println("\nshuffle edges:")
		for _, ef := range stats {
			fmt.Printf("  %s->%s: %d fetches, %d bytes\n", ef.Vertex, ef.Edge, ef.Fetches, ef.Bytes)
		}
	}
}

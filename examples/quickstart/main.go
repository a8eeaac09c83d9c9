// Quickstart: the canonical WordCount DAG of the paper's Figure 4, built
// directly against the Tez DAG + Runtime APIs and executed on the
// simulated YARN cluster.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"

	"tez/internal/am"
	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/runtime"
)

func init() {
	// User code: a map function and a reduce function, registered by name
	// and selected through the processors' opaque payloads (§3.2).
	library.RegisterMapFunc("wc.tokenize", func(_, line []byte, out runtime.KVWriter) error {
		for _, w := range strings.Fields(string(line)) {
			if err := out.Write([]byte(strings.ToLower(w)), []byte("1")); err != nil {
				return err
			}
		}
		return nil
	})
	library.RegisterReduceFunc("wc.sum", func(word []byte, counts [][]byte, out runtime.KVWriter) error {
		return out.Write(word, []byte(strconv.Itoa(len(counts))))
	})
}

func main() {
	// A simulated Hadoop cluster: YARN-like RM + DFS + shuffle service.
	plat := platform.New(platform.Default(4))
	defer plat.Stop()

	// Put some text into the DFS.
	w, err := library.CreateRecordFile(plat.FS, "/input/shakespeare", plat.FS.LiveNodes()[0])
	if err != nil {
		log.Fatal(err)
	}
	lines := []string{
		"to be or not to be that is the question",
		"whether tis nobler in the mind to suffer",
		"the slings and arrows of outrageous fortune",
		"or to take arms against a sea of troubles",
	}
	for i := 0; i < 200; i++ {
		if err := w.Write(nil, []byte(lines[i%len(lines)])); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	// Figure 4: tokenizer --scatter/gather--> summation.
	d := dag.New("wordcount")
	tokenizer := d.AddVertex("tokenizer",
		plugin.Desc(library.MapProcessorName, library.FuncConfig{Func: "wc.tokenize"}), -1)
	tokenizer.Sources = []dag.DataSource{library.DFSSource("text", []string{"/input/shakespeare"}, 0)}
	summation := d.AddVertex("summation",
		plugin.Desc(library.ReduceProcessorName, library.FuncConfig{Func: "wc.sum"}), 4)
	summation.Sinks = []dag.DataSink{library.DFSSink("counts", "/output/wc")}
	d.Connect(tokenizer, summation, library.OrderedEdge(library.OrderedPartitionedConfig{}))

	// Run it in a Tez session.
	sess := am.NewSession(plat, am.Config{Name: "quickstart"})
	defer sess.Close()
	res, err := sess.Run(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DAG %s in %v\n", res.Status, res.Duration.Round(0))
	fmt.Printf("counters: %s\n\n", res.Counters)

	// Read the committed output back.
	type wc struct {
		word string
		n    int
	}
	var counts []wc
	for _, f := range plat.FS.List("/output/wc/part-") {
		data, err := plat.FS.ReadFile(f, "")
		if err != nil {
			log.Fatal(err)
		}
		r := library.NewBufferReader(data)
		for r.Next() {
			n, _ := strconv.Atoi(string(r.Value()))
			counts = append(counts, wc{string(r.Key()), n})
		}
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i].n > counts[j].n })
	fmt.Println("top words:")
	for i, c := range counts {
		if i >= 8 {
			break
		}
		fmt.Printf("  %-10s %d\n", c.word, c.n)
	}
}

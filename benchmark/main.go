// Command benchmark is the repository's one repeatable benchmark: four
// long workloads on the simulated cluster, four gated end-to-end metrics
// per workload, and per-layer numbers gathered from outside the program.
// BENCHMARK.json at the repository root describes it; README.md in this
// directory says how to run it and what each number should move.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out runs.jsonl]
//	benchmark -compare a.jsonl b.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one line of an --out file: the result plus what produced
// it, which is what -compare groups by.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	resultLine
}

// defs is the catalogue this kind of run prints.
func (o *outcome) defs() []metricDef {
	if o.traced {
		return perLayer
	}
	return endToEnd
}

func (o *outcome) line() resultLine {
	r := resultLine{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range o.defs() {
		r.Metrics[m.name] = metricValue{Value: o.values[m.name], Unit: m.unit}
	}
	return r
}

// print writes every metric by name with its unit, the notes, and the
// result line last.
func (o *outcome) print() error {
	fmt.Printf("workload %s seed %d trace %v\n", o.workload, o.seed, o.traced)
	for _, m := range o.defs() {
		fmt.Printf("%-32s %16.4f %s\n", m.name, o.values[m.name], m.unit)
	}
	for _, n := range o.notes {
		fmt.Println("#", n)
	}
	blob, err := json.Marshal(o.line())
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(blob))
	return err
}

func appendRecord(path string, o *outcome) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	blob, err := json.Marshal(runRecord{Workload: o.workload, Seed: o.seed, Trace: o.traced, resultLine: o.line()})
	if err == nil {
		_, err = f.Write(append(blob, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// defaultOutDir is benchmark/out seen from the repository root, out seen
// from this directory.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return "benchmark/out"
	}
	return "out"
}

func main() {
	var (
		name    = flag.String("workload", "", "one of wordcount-spill, hive-scanagg, hive-joinagg, service-open")
		seed    = flag.Int64("seed", 1, "seed of every input generator")
		seconds = flag.Float64("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: the traced run, which prints the per-layer metrics; 0: the end-to-end metrics")
		out     = flag.String("out", "", "append the result as one JSON line to this file (input of -compare)")
		compare = flag.Bool("compare", false, "compare two --out files given as arguments: old new")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.jsonl new.jsonl")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q or bad arguments\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	// Two cores at most, so a bigger machine measures the same program.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var o *outcome
	var err error
	if *trace != 0 {
		o, err = runTraced(w, *seed, d, full, defaultOutDir())
	} else {
		o, err = runUntraced(w, *seed, d, full)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := appendRecord(*out, o); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if err := o.print(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !o.correct {
		os.Exit(1)
	}
}

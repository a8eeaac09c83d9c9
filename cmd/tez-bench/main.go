// tez-bench regenerates the paper's evaluation (Figures 8–13) and the
// ablation suite on the simulated cluster and prints the tables/series.
//
//	go run ./cmd/tez-bench                 # everything, small scale
//	go run ./cmd/tez-bench -scale full     # closer to paper parameters
//	go run ./cmd/tez-bench -exp f8,f11     # selected experiments
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"tez/internal/bench"
)

func main() {
	scaleFlag := flag.String("scale", "small", "experiment scale: small | full")
	expFlag := flag.String("exp", "all", "comma-separated experiments: f8,f9,f10,f11,f12,f13,chaos,ablations,shuffle-sort,shuffle-codec,controlplane,controlplane-quick,service,graph")
	shuffleJSON := flag.String("shuffle-json", "", "write shuffle-sort/shuffle-codec results to this JSON file")
	cpJSON := flag.String("controlplane-json", "", "write control-plane results to this JSON file")
	serviceJSON := flag.String("service-json", "", "write multi-tenant service results to this JSON file")
	graphJSON := flag.String("graph-json", "", "write BSP graph-engine results to this JSON file")
	flag.Parse()

	var sc bench.Scale
	switch *scaleFlag {
	case "small":
		sc = bench.Small
	case "full":
		sc = bench.Full
	default:
		log.Fatalf("unknown scale %q", *scaleFlag)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]

	type experiment struct {
		key string
		run func(bench.Scale) (*bench.Report, error)
	}
	experiments := []experiment{
		{"f8", bench.HiveTPCDS},
		{"f9", bench.HiveTPCH},
		{"f10", bench.PigProduction},
		{"f11", bench.KMeansIterations},
		{"f12", bench.SparkTimelines},
		{"f13", bench.SparkLatency},
		{"chaos", bench.ChaosRobustness},
	}
	start := time.Now()
	for _, e := range experiments {
		if !all && !want[e.key] {
			continue
		}
		t0 := time.Now()
		rep, err := e.run(sc)
		if err != nil {
			log.Fatalf("%s: %v", e.key, err)
		}
		fmt.Println(rep)
		fmt.Printf("(%s took %v)\n\n", e.key, time.Since(t0).Round(time.Millisecond))
	}
	if all || want["ablations"] {
		reps, err := bench.Ablations(sc)
		if err != nil {
			log.Fatalf("ablations: %v", err)
		}
		for _, r := range reps {
			fmt.Println(r)
		}
	}

	// The shuffle data-plane ablations are computed as structured rows so
	// -shuffle-json can persist them (BENCH_shuffle.json) alongside the
	// printed tables.
	var shufflePayload struct {
		Scale string                     `json:"scale"`
		Sort  []bench.ShuffleBenchResult `json:"sort,omitempty"`
		Codec []bench.ShuffleCodecResult `json:"codec,omitempty"`
	}
	shufflePayload.Scale = sc.Name
	if all || want["shuffle-sort"] {
		rows, err := bench.ShuffleSortResults(sc)
		if err != nil {
			log.Fatalf("shuffle-sort: %v", err)
		}
		shufflePayload.Sort = rows
		fmt.Println(bench.ShuffleSortReport(rows))
	}
	if all || want["shuffle-codec"] {
		rows, err := bench.ShuffleCodecResults(sc)
		if err != nil {
			log.Fatalf("shuffle-codec: %v", err)
		}
		shufflePayload.Codec = rows
		fmt.Println(bench.ShuffleCodecReport(rows))
	}
	// Control-plane throughput (ROADMAP item 2). Opt-in, not part of
	// "all": the flagship 10k-node / 100k-task DAG run takes minutes.
	if want["controlplane"] || want["controlplane-quick"] {
		rows, err := bench.ControlPlaneResults(want["controlplane"])
		if err != nil {
			log.Fatalf("controlplane: %v", err)
		}
		fmt.Println(bench.ControlPlaneReport(rows))
		if *cpJSON != "" {
			var payload struct {
				Baseline []bench.ControlPlaneResult `json:"baseline,omitempty"`
				Current  []bench.ControlPlaneResult `json:"current"`
				Speedups map[string]string          `json:"speedups,omitempty"`
			}
			payload.Baseline = bench.ControlPlaneBaseline
			payload.Current = rows
			payload.Speedups = map[string]string{}
			for _, r := range rows {
				if s := bench.ControlPlaneSpeedup(rows, r.Experiment); s > 0 {
					payload.Speedups[r.Experiment] = fmt.Sprintf("%.1fx", s)
				}
			}
			if len(payload.Speedups) == 0 {
				payload.Speedups = nil
			}
			blob, err := json.MarshalIndent(payload, "", "  ")
			if err != nil {
				log.Fatalf("controlplane-json: %v", err)
			}
			if err := os.WriteFile(*cpJSON, append(blob, '\n'), 0o644); err != nil {
				log.Fatalf("controlplane-json: %v", err)
			}
			fmt.Printf("wrote %s\n", *cpJSON)
		}
	}

	// Multi-tenant service throughput (ISSUE 7). Opt-in like controlplane:
	// the open-loop flood is load, not a paper figure.
	if want["service"] {
		rows, err := bench.ServiceResults()
		if err != nil {
			log.Fatalf("service: %v", err)
		}
		fmt.Println(bench.ServiceReport(rows))
		if *serviceJSON != "" {
			var payload struct {
				Current []bench.ServiceBenchResult `json:"current"`
			}
			payload.Current = rows
			blob, err := json.MarshalIndent(payload, "", "  ")
			if err != nil {
				log.Fatalf("service-json: %v", err)
			}
			if err := os.WriteFile(*serviceJSON, append(blob, '\n'), 0o644); err != nil {
				log.Fatalf("service-json: %v", err)
			}
			fmt.Printf("wrote %s\n", *serviceJSON)
		}
	}

	// BSP graph engine (ISSUE 8). Opt-in like controlplane/service: the
	// superstep loops and the cold-load ablation are load, not a figure.
	if want["graph"] {
		rows, err := bench.GraphResults()
		if err != nil {
			log.Fatalf("graph: %v", err)
		}
		fmt.Println(bench.GraphReport(rows))
		if *graphJSON != "" {
			var payload struct {
				Current []bench.GraphBenchResult `json:"current"`
			}
			payload.Current = rows
			blob, err := json.MarshalIndent(payload, "", "  ")
			if err != nil {
				log.Fatalf("graph-json: %v", err)
			}
			if err := os.WriteFile(*graphJSON, append(blob, '\n'), 0o644); err != nil {
				log.Fatalf("graph-json: %v", err)
			}
			fmt.Printf("wrote %s\n", *graphJSON)
		}
	}

	if *shuffleJSON != "" && (shufflePayload.Sort != nil || shufflePayload.Codec != nil) {
		blob, err := json.MarshalIndent(shufflePayload, "", "  ")
		if err != nil {
			log.Fatalf("shuffle-json: %v", err)
		}
		if err := os.WriteFile(*shuffleJSON, append(blob, '\n'), 0o644); err != nil {
			log.Fatalf("shuffle-json: %v", err)
		}
		fmt.Printf("wrote %s\n", *shuffleJSON)
	}
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
}

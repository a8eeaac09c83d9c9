// tez-bench regenerates the paper's evaluation (Figures 8–13), the
// ablation suite and the scale experiments on the simulated cluster and
// prints one table per experiment. It persists nothing: numbers compared
// from commit to commit come from benchmark/run.sh.
//
//	go run ./cmd/tez-bench                   # every row that is not opt-in, small scale
//	go run ./cmd/tez-bench -scale full       # closer to paper parameters
//	go run ./cmd/tez-bench -exp f8,ablations # selected rows and groups
//	go run ./cmd/tez-bench -exp controlplane # opt-in: 10k-node scheduler, 100k-task DAG
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"tez/internal/bench"
)

func main() {
	scaleFlag := flag.String("scale", "small", "experiment scale: small | full")
	expFlag := flag.String("exp", "all", "comma-separated experiment or group keys; an unknown key lists the valid ones")
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
	selected, err := bench.Select(*expFlag)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	for _, e := range selected {
		t0 := time.Now()
		rep, err := e.Run(sc)
		// A runner that detected a wrong answer returns its table too.
		if rep != nil {
			fmt.Println(rep)
		}
		if err != nil {
			log.Fatalf("%s: %v", e.Key, err)
		}
		fmt.Printf("(%s took %v)\n\n", e.Key, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
}

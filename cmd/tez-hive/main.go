// tez-hive runs a SQL query of the supported subset against generated
// TPC-H- and TPC-DS-shaped tables, on the Tez backend, the MapReduce
// backend, or both. With both it compares the rows the two stored and
// exits 1 when they differ.
//
//	go run ./cmd/tez-hive -q "SELECT l_returnflag, count(*) AS n FROM lineitem GROUP BY l_returnflag"
//	go run ./cmd/tez-hive -backend both -q "..."
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"tez/internal/am"
	"tez/internal/data"
	"tez/internal/hive"
	"tez/internal/platform"
	"tez/internal/relop"
	"tez/internal/row"
)

func main() {
	query := flag.String("q", "SELECT l_returnflag, count(*) AS n FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag", "SQL query")
	backend := flag.String("backend", "tez", "tez | mr | both")
	explain := flag.Bool("explain", false, "print the plan and compiled DAG instead of running")
	orders := flag.Int("orders", 1000, "TPC-H scale (orders)")
	sales := flag.Int("sales", 2000, "TPC-DS scale (fact rows)")
	nodes := flag.Int("nodes", 8, "simulated cluster nodes")
	flag.Parse()
	if *backend != "tez" && *backend != "mr" && *backend != "both" {
		log.Fatalf("unknown -backend %q: want tez, mr or both", *backend)
	}

	plat := platform.New(platform.Default(*nodes))
	defer plat.Stop()
	eng := hive.NewEngine()
	eng.Exec = relop.Config{DefaultPartitions: 8}

	tp, err := data.GenTPCH(plat.FS, *orders, 1)
	if err != nil {
		log.Fatal(err)
	}
	eng.Register(tp.Tables()...)
	td, err := data.GenTPCDS(plat.FS, *sales, 2)
	if err != nil {
		log.Fatal(err)
	}
	eng.Register(td.Tables()...)

	if *explain {
		text, err := eng.Explain(*query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(text)
		return
	}

	show := func(label, out string, dur time.Duration, extra string) []row.Row {
		rows, err := relop.ReadStored(plat.FS, out)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %v %s\n", label, dur.Round(time.Millisecond), extra)
		for i, r := range rows {
			if i >= 25 {
				fmt.Printf("  … %d more rows\n", len(rows)-25)
				break
			}
			fmt.Print("  ")
			for _, v := range r {
				fmt.Printf("%v\t", v)
			}
			fmt.Println()
		}
		fmt.Println()
		return rows
	}

	var tezRows, mrRows []row.Row
	if *backend == "tez" || *backend == "both" {
		sess := am.NewSession(plat, am.Config{Name: "tez-hive", PrewarmContainers: 4})
		start := time.Now()
		if _, err := eng.RunTez(sess, "cli-tez", *query, "/results/cli-tez"); err != nil {
			log.Fatal(err)
		}
		tezRows = show("Tez", "/results/cli-tez", time.Since(start), "(single DAG)")
		sess.Close()
	}
	if *backend == "mr" || *backend == "both" {
		start := time.Now()
		stats, err := eng.RunMR(plat, am.Config{Name: "mr-hive"}, "cli-mr", *query, "/results/cli-mr")
		if err != nil {
			log.Fatal(err)
		}
		mrRows = show("MapReduce", "/results/cli-mr", time.Since(start), fmt.Sprintf("(%d jobs)", stats.Jobs))
	}
	if *backend == "both" {
		if !relop.SameRows(tezRows, mrRows) {
			log.Fatalf("Tez stored %d rows, MapReduce %d: the backends disagree", len(tezRows), len(mrRows))
		}
		fmt.Printf("Tez and MapReduce stored the same %d rows\n", len(tezRows))
	}
}

// tez-pig runs a named ETL pipeline from the built-in set, or an inline
// script, on the Tez or MapReduce backend, or both, against generated
// skewed inputs. With both it compares the rows the two stored and exits
// 1 when they differ.
//
//	go run ./cmd/tez-pig -list
//	go run ./cmd/tez-pig -pipeline skew_join -backend both
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"tez/internal/am"
	"tez/internal/data"
	"tez/internal/pig"
	"tez/internal/platform"
	"tez/internal/relop"
	"tez/internal/row"
)

type pipeline struct {
	name  string
	about string
	build func(a, b *relop.Table, out string) *pig.Script
}

var pipelines = []pipeline{
	{"group_agg", "GROUP BY key with count+sum", func(a, _ *relop.Table, out string) *pig.Script {
		s := pig.NewScript("group_agg")
		d := s.Load(a)
		s.Store(d.GroupBy([]*relop.Expr{d.Col("k")}, []string{"k"},
			[]relop.AggDef{{Func: "count", Name: "n"}, {Func: "sum", Arg: d.Col("v"), Name: "s"}}), out)
		return s
	}},
	{"join_group", "JOIN then GROUP BY", func(a, b *relop.Table, out string) *pig.Script {
		s := pig.NewScript("join_group")
		da, db := s.Load(a), s.Load(b)
		j := da.Join(db, []*relop.Expr{da.Col("k")}, []*relop.Expr{db.Col("k")})
		s.Store(j.GroupBy([]*relop.Expr{relop.Col(0)}, []string{"k"},
			[]relop.AggDef{{Func: "count", Name: "pairs"}}), out)
		return s
	}},
	{"skew_join", "skew-mitigated join (sampled range partitioning)", func(a, b *relop.Table, out string) *pig.Script {
		s := pig.NewScript("skew_join")
		da, db := s.Load(a), s.Load(b)
		j := da.SkewJoin(db, []*relop.Expr{da.Col("k")}, []*relop.Expr{db.Col("k")}, 6)
		s.Store(j.GroupBy(nil, nil, []relop.AggDef{{Func: "count", Name: "n"}}), out)
		return s
	}},
	{"order_by", "global ORDER BY via sampled range partitioning", func(a, _ *relop.Table, out string) *pig.Script {
		s := pig.NewScript("order_by")
		d := s.Load(a)
		s.Store(d.OrderBy([]*relop.Expr{d.Col("v")}, []bool{true}, 30, 4), out)
		return s
	}},
	{"split_etl", "SPLIT into two stores from one shared scan", func(a, _ *relop.Table, out string) *pig.Script {
		s := pig.NewScript("split_etl")
		d := s.Load(a)
		br := d.Split(
			relop.Cmp("<", d.Col("k"), relop.LitInt(5)),
			relop.Cmp(">=", d.Col("k"), relop.LitInt(5)),
		)
		s.Store(br[0], out+"-head")
		s.Store(br[1], out+"-tail")
		return s
	}},
	{"union_distinct", "UNION of two inputs then DISTINCT", func(a, b *relop.Table, out string) *pig.Script {
		s := pig.NewScript("union_distinct")
		da := s.Load(a).ForEach([]*relop.Expr{relop.Col(0)}, []string{"k"}, []row.Kind{row.KindInt})
		db := s.Load(b).ForEach([]*relop.Expr{relop.Col(0)}, []string{"k"}, []row.Kind{row.KindInt})
		s.Store(da.Union(db).Distinct(), out)
		return s
	}},
}

const scriptHelp = `inline PigLatin-style script, e.g.:
  e = LOAD 'input_a'; g = GROUP e BY k GENERATE count(*) AS n; STORE g INTO '/out/s';
tables input_a (skewed) and input_b (unique keys) are pre-loaded`

func main() {
	name := flag.String("pipeline", "group_agg", "pipeline name")
	backend := flag.String("backend", "tez", "tez | mr | both")
	rows := flag.Int("rows", 5000, "input rows")
	list := flag.Bool("list", false, "list pipelines")
	explain := flag.Bool("explain", false, "print the compiled DAG and its stages instead of running")
	script := flag.String("script", "", scriptHelp)
	flag.Parse()
	if *backend != "tez" && *backend != "mr" && *backend != "both" {
		log.Fatalf("unknown -backend %q: want tez, mr or both", *backend)
	}

	if *list {
		for _, p := range pipelines {
			fmt.Printf("%-16s %s\n", p.name, p.about)
		}
		return
	}
	if *script != "" {
		runScript(*script, *backend, *rows, *explain)
		return
	}
	var chosen *pipeline
	for i := range pipelines {
		if pipelines[i].name == *name {
			chosen = &pipelines[i]
		}
	}
	if chosen == nil {
		log.Fatalf("unknown pipeline %q (use -list)", *name)
	}

	plat := platform.New(platform.Default(8))
	defer plat.Stop()
	a, err := data.GenZipfPairs(plat.FS, "input_a", *rows, 200, 1.3, 1)
	if err != nil {
		log.Fatal(err)
	}
	b, err := data.GenZipfPairs(plat.FS, "input_b", *rows/4+20, 200, 1.05, 2)
	if err != nil {
		log.Fatal(err)
	}

	if *explain {
		text, err := chosen.build(a, b, "/out/"+chosen.name+"-explain").Explain()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(text)
		return
	}
	runBackends(plat, func(suffix string) *pig.Script {
		return chosen.build(a, b, "/out/"+chosen.name+suffix)
	}, *backend, false)
}

// runScript parses and executes an inline PigLatin-style script.
func runScript(src, backend string, rows int, explain bool) {
	plat := platform.New(platform.Default(8))
	defer plat.Stop()
	a, err := data.GenZipfPairs(plat.FS, "input_a", rows, 200, 1.3, 1)
	if err != nil {
		log.Fatal(err)
	}
	b, err := data.GenUniquePairs(plat.FS, "input_b", 200, 2)
	if err != nil {
		log.Fatal(err)
	}
	cat := pig.Catalog{"input_a": a, "input_b": b}
	s, err := pig.ParseScript("cli", src, cat)
	if err != nil {
		log.Fatal(err)
	}
	if explain {
		text, err := s.Explain()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(text)
		return
	}
	runBackends(plat, func(string) *pig.Script { return s }, backend, true)
}

// runBackends runs the script build returns for each chosen backend
// (suffix "-tez" or "-mr" tells them apart), printing the rows each
// stored when show is set. With both it compares the two runs' stores,
// root by root, and exits 1 when they differ. A script that names its
// stores stores to the same paths on both, so the Tez run's rows are read
// and deleted before the MapReduce run.
func runBackends(plat *platform.Platform, build func(suffix string) *pig.Script, backend string, show bool) {
	var stored [2][][]row.Row
	for i, b := range []string{"tez", "mr"} {
		if backend != b && backend != "both" {
			continue
		}
		s := build("-" + b)
		start := time.Now()
		if b == "tez" {
			sess := am.NewSession(plat, am.Config{Name: "cli", PrewarmContainers: 4})
			res, err := s.RunTez(sess)
			sess.Close()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("Tez: %v  counters: %s\n", time.Since(start).Round(time.Millisecond), res.Counters)
		} else {
			stats, err := s.RunMR(plat, am.Config{Name: "cli-mr"})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("MapReduce: %v (%d jobs)\n", time.Since(start).Round(time.Millisecond), stats.Jobs)
		}
		for _, root := range s.Roots() {
			if backend != "both" && !show {
				continue
			}
			rows, err := relop.ReadStored(plat.FS, root.StorePath)
			if err != nil {
				log.Fatal(err)
			}
			stored[i] = append(stored[i], rows)
			if backend == "both" && b == "tez" {
				plat.FS.DeletePrefix(root.StorePath + "/")
			}
			if show {
				printRows(root.StorePath, rows)
			}
		}
	}
	if backend != "both" {
		return
	}
	for r := range stored[0] {
		if !relop.SameRows(stored[0][r], stored[1][r]) {
			log.Fatalf("store %d: Tez stored %d rows, MapReduce %d: the backends disagree",
				r, len(stored[0][r]), len(stored[1][r]))
		}
	}
	fmt.Printf("Tez and MapReduce stored the same rows in %d stores\n", len(stored[0]))
}

// printRows prints a store's rows, the first 20 of them.
func printRows(path string, rows []row.Row) {
	fmt.Printf("%s (%d rows):\n", path, len(rows))
	for i, r := range rows {
		if i >= 20 {
			fmt.Printf("  … %d more\n", len(rows)-20)
			break
		}
		fmt.Print("  ")
		for _, v := range r {
			fmt.Printf("%v\t", v)
		}
		fmt.Println()
	}
}

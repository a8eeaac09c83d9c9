// tez-pig runs a named ETL pipeline from the built-in set on the Tez or
// MapReduce backend against generated skewed inputs.
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
	if *backend == "tez" || *backend == "both" {
		sess := am.NewSession(plat, am.Config{Name: "tez-pig", PrewarmContainers: 4})
		start := time.Now()
		res, err := chosen.build(a, b, "/out/"+chosen.name+"-tez").RunTez(sess)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Tez: %v  counters: %s\n", time.Since(start).Round(time.Millisecond), res.Counters)
		sess.Close()
	}
	if *backend == "mr" || *backend == "both" {
		start := time.Now()
		stats, err := chosen.build(a, b, "/out/"+chosen.name+"-mr").RunMR(plat, am.Config{Name: "mr-pig"})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("MapReduce: %v (%d jobs)\n", time.Since(start).Round(time.Millisecond), stats.Jobs)
	}
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
	if backend == "mr" {
		start := time.Now()
		stats, err := s.RunMR(plat, am.Config{Name: "cli-mr"})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("MapReduce: %v (%d jobs)\n", time.Since(start).Round(time.Millisecond), stats.Jobs)
		return
	}
	sess := am.NewSession(plat, am.Config{Name: "cli", PrewarmContainers: 4})
	defer sess.Close()
	start := time.Now()
	res, err := s.RunTez(sess)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Tez: %v  counters: %s\n", time.Since(start).Round(time.Millisecond), res.Counters)
	for _, root := range s.Roots() {
		rowsOut, err := relop.ReadStored(plat.FS, root.StorePath)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (%d rows):\n", root.StorePath, len(rowsOut))
		for i, r := range rowsOut {
			if i >= 20 {
				fmt.Printf("  … %d more\n", len(rowsOut)-20)
				break
			}
			fmt.Print("  ")
			for _, v := range r {
				fmt.Printf("%v\t", v)
			}
			fmt.Println()
		}
	}
}

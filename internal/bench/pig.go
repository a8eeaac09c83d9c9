package bench

import (
	"fmt"
	"time"

	"tez/internal/am"
	"tez/internal/data"
	"tez/internal/pig"
	"tez/internal/platform"
	"tez/internal/relop"
	"tez/internal/row"
)

// pigWorkload is one ETL pipeline of the Figure 10 production mix. Each
// builder produces a multi-stage script over the shared inputs.
type pigWorkload struct {
	name  string
	build func(t1, t2 *relop.Table, out string) *pig.Script
}

// The mix mirrors §6.3: combinations of group by, union, distinct, join,
// order by, multi-output — the operations Yahoo's production scripts used.
var pigWorkloads = []pigWorkload{
	{"group_agg", func(t1, _ *relop.Table, out string) *pig.Script {
		s := pig.NewScript("group_agg")
		a := s.Load(t1)
		g := a.GroupBy([]*relop.Expr{a.Col("k")}, []string{"k"},
			[]relop.AggDef{{Func: "count", Name: "n"}, {Func: "sum", Arg: a.Col("v"), Name: "s"}})
		s.Store(g, out)
		return s
	}},
	{"join_group", func(t1, t2 *relop.Table, out string) *pig.Script {
		s := pig.NewScript("join_group")
		a := s.Load(t1)
		b := s.Load(t2)
		j := a.Join(b, []*relop.Expr{a.Col("k")}, []*relop.Expr{b.Col("k")})
		g := j.GroupBy([]*relop.Expr{relop.Col(0)}, []string{"k"},
			[]relop.AggDef{{Func: "count", Name: "pairs"}})
		s.Store(g, out)
		return s
	}},
	{"union_distinct", func(t1, t2 *relop.Table, out string) *pig.Script {
		s := pig.NewScript("union_distinct")
		a := s.Load(t1).ForEach([]*relop.Expr{relop.Col(0)}, []string{"k"}, []row.Kind{row.KindInt})
		b := s.Load(t2).ForEach([]*relop.Expr{relop.Col(0)}, []string{"k"}, []row.Kind{row.KindInt})
		s.Store(a.Union(b).Distinct(), out)
		return s
	}},
	{"multi_output_etl", func(t1, t2 *relop.Table, out string) *pig.Script {
		s := pig.NewScript("multi_output_etl")
		a := s.Load(t1)
		branches := a.Split(
			relop.Cmp("<", a.Col("k"), relop.LitInt(10)),
			relop.Cmp(">=", a.Col("k"), relop.LitInt(10)),
		)
		hot := branches[0].GroupBy([]*relop.Expr{branches[0].Col("k")}, []string{"k"},
			[]relop.AggDef{{Func: "count", Name: "n"}})
		s.Store(hot, out+"-hot")
		s.Store(branches[1], out+"-cold")
		return s
	}},
	{"order_by", func(t1, _ *relop.Table, out string) *pig.Script {
		s := pig.NewScript("order_by")
		a := s.Load(t1)
		s.Store(a.OrderBy([]*relop.Expr{a.Col("v")}, []bool{false}, 0, 4), out)
		return s
	}},
	{"skew_join", func(t1, t2 *relop.Table, out string) *pig.Script {
		s := pig.NewScript("skew_join")
		a := s.Load(t1)
		b := s.Load(t2)
		j := a.SkewJoin(b, []*relop.Expr{a.Col("k")}, []*relop.Expr{b.Col("k")}, 4)
		g := j.GroupBy(nil, nil, []relop.AggDef{{Func: "count", Name: "n"}})
		s.Store(g, out)
		return s
	}},
}

// pigProduction regenerates Figure 10: the production ETL mix, Tez vs MR.
func pigProduction(sc Scale) (*Report, error) {
	plat := platform.New(platform.Default(10))
	defer plat.Stop()
	t1, err := data.GenZipfPairs(plat.FS, "etl_a", sc.PigRows, 200, 1.3, 10)
	if err != nil {
		return nil, err
	}
	// The join/skew-join right side is a one-row-per-key profile table (a
	// foreign-key join; two skewed sides would multiply hot keys).
	t2, err := data.GenUniquePairs(plat.FS, "etl_b", 200, 11)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Figure:  "Figure 10",
		Title:   "Pig: production ETL workloads (" + sc.Name + " scale)",
		Headers: []string{"script", "MR (ms)", "Tez (ms)", "speedup", "MR jobs"},
		Notes: []string{
			"scripts mix group by, union, distinct, join, order by, skew join and multi-output stores (§6.3)",
			"paper reports 1.5–2x for this class of workload",
		},
	}

	sess := am.NewSession(plat, am.Config{
		Name:                 "pig-tez",
		PrewarmContainers:    4,
		ContainerIdleRelease: 200 * time.Millisecond,
	})
	defer sess.Close()

	for _, w := range pigWorkloads {
		mrScript := w.build(t1, t2, "/bench/pig/"+w.name+"-mr")
		start := time.Now()
		stats, err := mrScript.RunMR(plat, am.Config{Name: w.name + "-mr"})
		if err != nil {
			return nil, fmt.Errorf("%s on MR: %w", w.name, err)
		}
		mrDur := time.Since(start)

		tezScript := w.build(t1, t2, "/bench/pig/"+w.name+"-tez")
		start = time.Now()
		if _, err := tezScript.RunTez(sess); err != nil {
			return nil, fmt.Errorf("%s on Tez: %w", w.name, err)
		}
		tezDur := time.Since(start)
		// Cross-check every store: both backends computed the same rows.
		for i, root := range mrScript.Roots() {
			if err := sameAnswer(plat.FS, root.StorePath, tezScript.Roots()[i].StorePath); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
		}
		rep.AddRow(w.name, ms(mrDur), ms(tezDur), speedup(mrDur, tezDur), fmt.Sprintf("%d", stats.Jobs))
	}
	return rep, nil
}

package pig

import (
	"testing"
	"time"

	"tez/internal/am"
	"tez/internal/cluster"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/relop"
	"tez/internal/row"
	"tez/internal/testutil"
)

func setup(t *testing.T) (*platform.Platform, *am.Session, *relop.Table, *relop.Table) {
	t.Helper()
	plat := platform.New(platform.Fast(4))
	testutil.FsckAtEnd(t, plat.FS)
	users := &relop.Table{Name: "users", Schema: row.NewSchema("uid:int", "country", "age:int")}
	uRows := []row.Row{
		{row.Int(1), row.String("de"), row.Int(30)},
		{row.Int(2), row.String("us"), row.Int(25)},
		{row.Int(3), row.String("de"), row.Int(40)},
		{row.Int(4), row.String("fr"), row.Int(17)},
	}
	if err := relop.WriteTable(plat.FS, users, 2, uRows); err != nil {
		t.Fatal(err)
	}
	events := &relop.Table{Name: "events", Schema: row.NewSchema("uid:int", "kind", "n:int")}
	eRows := []row.Row{
		{row.Int(1), row.String("click"), row.Int(3)},
		{row.Int(1), row.String("view"), row.Int(7)},
		{row.Int(2), row.String("click"), row.Int(1)},
		{row.Int(3), row.String("view"), row.Int(2)},
		{row.Int(9), row.String("view"), row.Int(9)},
	}
	if err := relop.WriteTable(plat.FS, events, 2, eRows); err != nil {
		t.Fatal(err)
	}
	sess := am.NewSession(plat, am.Config{Name: "pig"})
	t.Cleanup(func() { sess.Close(); plat.Stop() })
	return plat, sess, users, events
}

func TestETLPipelineMultiOutput(t *testing.T) {
	plat, sess, users, events := setup(t)
	s := NewScript("etl")
	u := s.Load(users)
	e := s.Load(events)
	adults := u.Filter(relop.Cmp(">=", u.Col("age"), relop.LitInt(18)))
	joined := adults.Join(e, []*relop.Expr{adults.Col("uid")}, []*relop.Expr{e.Col("uid")})
	// joined schema: uid, country, age, uid, kind, n
	byCountry := joined.GroupBy(
		[]*relop.Expr{relop.Col(1)}, []string{"country"},
		[]relop.AggDef{{Func: "sum", Arg: relop.Col(5), Name: "events"}})
	s.Store(byCountry, "/out/by_country")
	// Second output from the same upstream: distinct event kinds.
	kinds := e.ForEach([]*relop.Expr{e.Col("kind")}, []string{"kind"}, []row.Kind{row.KindString}).Distinct()
	s.Store(kinds, "/out/kinds")

	if res, err := s.RunTez(sess); err != nil || res.Status != am.DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	byC, err := relop.ReadStored(plat.FS, "/out/by_country")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range byC {
		got[r[0].Str] = r[1].AsFloat()
	}
	if got["de"] != 12 || got["us"] != 1 || len(got) != 2 {
		t.Fatalf("by_country = %v", got)
	}
	ks, err := relop.ReadStored(plat.FS, "/out/kinds")
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 2 {
		t.Fatalf("kinds = %v", ks)
	}
}

func TestSplitBranchesShareScan(t *testing.T) {
	plat, sess, users, _ := setup(t)
	s := NewScript("split")
	u := s.Load(users)
	branches := u.Split(
		relop.Eq(u.Col("country"), relop.LitString("de")),
		relop.Not(relop.Eq(u.Col("country"), relop.LitString("de"))),
	)
	s.Store(branches[0], "/out/de")
	s.Store(branches[1], "/out/rest")
	if res, err := s.RunTez(sess); err != nil || res.Status != am.DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	de, _ := relop.ReadStored(plat.FS, "/out/de")
	rest, _ := relop.ReadStored(plat.FS, "/out/rest")
	if len(de) != 2 || len(rest) != 2 {
		t.Fatalf("split sizes: de=%d rest=%d", len(de), len(rest))
	}
	// One DAG, one scan stage: the split shares the load.
	d, err := relop.EmitDAGOnly(s.Exec, "inspect", s.Roots())
	if err != nil {
		t.Fatal(err)
	}
	scans := 0
	for _, v := range d.Vertices {
		if len(v.Sources) > 0 {
			scans++
		}
	}
	if scans != 1 {
		t.Fatalf("split compiled to %d scan vertices, want 1 shared", scans)
	}
}

func TestOrderByGlobal(t *testing.T) {
	plat, sess, users, _ := setup(t)
	s := NewScript("order")
	u := s.Load(users)
	ordered := u.OrderBy([]*relop.Expr{u.Col("age")}, []bool{false}, 0, 2)
	s.Store(ordered, "/out/ordered")
	if res, err := s.RunTez(sess); err != nil || res.Status != am.DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	rows, err := relop.ReadStored(plat.FS, "/out/ordered")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if row.Compare(rows[i-1][2], rows[i][2]) > 0 {
			t.Fatalf("order broken at %d", i)
		}
	}
}

func TestPigTezAndMRAgree(t *testing.T) {
	plat, _, users, events := setup(t)
	build := func(out string) *Script {
		s := NewScript("agree")
		u := s.Load(users)
		e := s.Load(events)
		j := u.Join(e, []*relop.Expr{u.Col("uid")}, []*relop.Expr{e.Col("uid")})
		agg := j.GroupBy([]*relop.Expr{relop.Col(0)}, []string{"uid"},
			[]relop.AggDef{{Func: "count", Name: "n"}})
		s.Store(agg, out)
		return s
	}
	sess := am.NewSession(plat, am.Config{Name: "agree"})
	defer sess.Close()
	if _, err := build("/out/agree-tez").RunTez(sess); err != nil {
		t.Fatal(err)
	}
	if _, err := build("/out/agree-mr").RunMR(plat, am.Config{Name: "agree-mr"}); err != nil {
		t.Fatal(err)
	}
	a, err := relop.ReadStored(plat.FS, "/out/agree-tez")
	if err != nil {
		t.Fatal(err)
	}
	b, err := relop.ReadStored(plat.FS, "/out/agree-mr")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 || !relop.SameRows(a, b) {
		t.Fatalf("tez stored %v, mr %v", a, b)
	}
	// A stored aggregate: each part file in group-key order.
	testutil.PartsInKeyOrder(t, plat.FS, "/out/agree-tez")
	testutil.PartsInKeyOrder(t, plat.FS, "/out/agree-mr")
}

func TestEmptyScriptRejected(t *testing.T) {
	plat := platform.New(platform.Fast(2))
	defer plat.Stop()
	sess := am.NewSession(plat, am.Config{Name: "x"})
	defer sess.Close()
	s := NewScript("empty")
	if _, err := s.RunTez(sess); err == nil {
		t.Fatal("empty script accepted")
	}
}

// TestGobDecodesFollowContainers: a script's stage programs are decoded
// once per container and vertex, never per task. Forty scan tasks of a
// filter → join → group → order script share four containers, and the
// gob decodes stay at or below vertices × containers.
func TestGobDecodesFollowContainers(t *testing.T) {
	cfg := platform.Fast(4)
	cfg.Cluster.NodeResource = cluster.Resource{MemoryMB: 1024, VCores: 1}
	plat := platform.New(cfg)
	defer plat.Stop()
	users := &relop.Table{Name: "users", Schema: row.NewSchema("uid:int", "country", "age:int")}
	var uRows []row.Row
	for i := int64(0); i < 4000; i++ {
		uRows = append(uRows, row.Row{row.Int(i), row.String([]string{"de", "us", "fr"}[i%3]), row.Int(10 + i%60)})
	}
	if err := relop.WriteTable(plat.FS, users, 40, uRows); err != nil {
		t.Fatal(err)
	}
	countries := &relop.Table{Name: "countries", Schema: row.NewSchema("code", "region")}
	if err := relop.WriteTable(plat.FS, countries, 1, []row.Row{
		{row.String("de"), row.String("eu")}, {row.String("fr"), row.String("eu")}, {row.String("us"), row.String("am")},
	}); err != nil {
		t.Fatal(err)
	}
	sess := am.NewSession(plat, am.Config{Name: "gobcost", ContainerIdleRelease: 10 * time.Second})
	defer sess.Close()

	s := NewScript("gobcost")
	s.Exec.SplitSize = plat.FS.BlockSize() // one scan task per block
	u := s.Load(users)
	c := s.Load(countries)
	adults := u.Filter(relop.Cmp(">=", u.Col("age"), relop.LitInt(18)))
	joined := adults.Join(c, []*relop.Expr{adults.Col("country")}, []*relop.Expr{c.Col("code")})
	byRegion := joined.GroupBy([]*relop.Expr{relop.Col(4)}, []string{"region"},
		[]relop.AggDef{{Func: "count", Name: "n"}})
	s.Store(byRegion.OrderBy([]*relop.Expr{relop.Col(0)}, []bool{false}, 0, 2), "/out/gobcost")

	before := plugin.GobDecodes()
	res, err := s.RunTez(sess)
	decodes := plugin.GobDecodes() - before
	if err != nil || res.Status != am.DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	containers, _ := sess.SchedulerStats()
	tasks, vertices := res.Counters.Get("TASKS_SUCCEEDED"), res.Counters.Get("VERTICES_SUCCEEDED")
	t.Logf("%d tasks in %d vertices on %d containers: %d gob decodes", tasks, vertices, containers, decodes)
	if tasks < 40 || containers > 4 {
		t.Fatalf("%d tasks on %d containers: not the many-tasks-few-containers shape this test is about", tasks, containers)
	}
	if decodes == 0 || decodes > vertices*int64(containers) {
		t.Fatalf("%d gob decodes, want at least one and at most %d vertices × %d containers", decodes, vertices, containers)
	}
	rows, err := relop.ReadStored(plat.FS, "/out/gobcost")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Str != "am" || rows[1][0].Str != "eu" {
		t.Fatalf("rows = %v", rows)
	}
}

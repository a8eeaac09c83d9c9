package pig

import (
	"sort"
	"strings"
	"testing"

	"tez/internal/am"
	"tez/internal/platform"
	"tez/internal/relop"
	"tez/internal/row"
)

func parseSetup(t *testing.T) (*platform.Platform, *am.Session, Catalog) {
	t.Helper()
	plat, sess, users, events := setup(t)
	return plat, sess, Catalog{"users": users, "events": events}
}

func TestParseScriptEndToEnd(t *testing.T) {
	plat, sess, cat := parseSetup(t)
	script := `
	-- adults joined with their events, counted per country
	u = LOAD 'users';
	e = LOAD 'events';
	adults = FILTER u BY age >= 18;
	j = JOIN adults BY uid, e BY uid;
	agg = GROUP j BY c1 GENERATE sum(n) AS events;
	STORE agg INTO '/out/pp_agg';
	`
	// column c1 of the join output is "country" (uid, country, age, …);
	// verify the numbered fallback works alongside names.
	script = strings.Replace(script, "GROUP j BY c1", "GROUP j BY country", 1)
	s, err := ParseScript("pp", script, cat)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.RunTez(sess); err != nil || res.Status != am.DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	rows, err := relop.ReadStored(plat.FS, "/out/pp_agg")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range rows {
		got[r[0].Str] = r[1].AsFloat()
	}
	if got["de"] != 12 || got["us"] != 1 || len(got) != 2 {
		t.Fatalf("agg = %v", got)
	}
}

func TestParseForeachSplitUnionDistinctOrder(t *testing.T) {
	plat, sess, cat := parseSetup(t)
	script := `
	e = LOAD 'events';
	ids = FOREACH e GENERATE uid, n * 2 AS doubled;
	SPLIT ids INTO small IF uid < 2, big IF uid >= 2;
	all = UNION small, big;
	d = DISTINCT all;
	o = ORDER d BY doubled DESC LIMIT 3;
	STORE o INTO '/out/pp_ord';
	STORE small INTO '/out/pp_small';
	`
	s, err := ParseScript("pp2", script, cat)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.RunTez(sess); err != nil || res.Status != am.DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	ord, err := relop.ReadStored(plat.FS, "/out/pp_ord")
	if err != nil {
		t.Fatal(err)
	}
	if len(ord) != 3 {
		t.Fatalf("ordered rows = %d", len(ord))
	}
	for i := 1; i < len(ord); i++ {
		if row.Compare(ord[i-1][1], ord[i][1]) < 0 {
			t.Fatalf("descending order broken: %v", ord)
		}
	}
	// events uids 1,1,2,3,9 → small = uids < 2 → 2 rows.
	small, _ := relop.ReadStored(plat.FS, "/out/pp_small")
	if len(small) != 2 {
		t.Fatalf("small = %d rows", len(small))
	}
}

func TestParseSkewJoin(t *testing.T) {
	plat, sess, cat := parseSetup(t)
	script := `
	u = LOAD 'users';
	e = LOAD 'events';
	j = SKEWJOIN e BY uid, u BY uid PARTITIONS 3;
	counted = GROUP j BY kind GENERATE count(*) AS n;
	STORE counted INTO '/out/pp_skew';
	`
	s, err := ParseScript("pp3", script, cat)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.RunTez(sess); err != nil || res.Status != am.DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	rows, err := relop.ReadStored(plat.FS, "/out/pp_skew")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, r := range rows {
		got[r[0].Str] = r[1].AsInt()
	}
	// events with uid in users(1..4): click(uid1), view(uid1), click(uid2), view(uid3).
	if got["click"] != 2 || got["view"] != 2 {
		t.Fatalf("skew join counts = %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	_, _, cat := parseSetup(t)
	bad := []string{
		``,                                       // no store
		`x = LOAD 'missing'; STORE x INTO '/o';`, // unknown table
		`x = FILTER y BY a > 1; STORE x INTO '/o';`,                                     // unknown relation
		`u = LOAD 'users'; STORE u INTO 1;`,                                             // path must be string
		`u = LOAD 'users'; v = FILTER u BY nope > 1; STORE v INTO '/o';`,                // unknown column
		`u = LOAD 'users'; v = GROUP u BY uid GENERATE median(age); STORE v INTO '/o';`, // unknown aggregate
		`u = LOAD 'users' extra; STORE u INTO '/o';`,                                    // trailing tokens
	}
	for _, src := range bad {
		if _, err := ParseScript("bad", src, cat); err == nil {
			t.Fatalf("parsed invalid script %q", src)
		}
	}
}

func TestParseCommentsAndWhitespace(t *testing.T) {
	_, _, cat := parseSetup(t)
	s, err := ParseScript("c", `
	-- leading comment
	u = LOAD 'users';  -- trailing comment
	STORE u INTO '/out/c';
	`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Roots()) != 1 {
		t.Fatal("store not recorded")
	}
}

func TestSplitStatements(t *testing.T) {
	got := splitStatements("a = 1; b = 'x;y'; -- c = 2;\n d = 3;")
	var clean []string
	for _, s := range got {
		if strings.TrimSpace(s) != "" {
			clean = append(clean, strings.TrimSpace(s))
		}
	}
	sort.Strings(clean)
	want := []string{"a = 1", "b = 'x;y'", "d = 3"}
	sort.Strings(want)
	if len(clean) != len(want) {
		t.Fatalf("statements = %q", clean)
	}
	for i := range want {
		if clean[i] != want[i] {
			t.Fatalf("statements = %q", clean)
		}
	}
}

// exprStrings renders expressions for comparison across the two front
// doors (script text and the Dataset API).
func exprStrings(es ...*relop.Expr) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.String()
	}
	return out
}

// TestParseNonASCIIBeforeExpression: token offsets index runes, so a
// multi-byte rune anywhere before the end of an expression must not
// shorten (or shift) the text handed to the expression parser. Sliced as
// bytes, `age >= 18` after 'dé' parsed as `age >= 1` and `age + 10` as
// `age + 1`, silently.
func TestParseNonASCIIBeforeExpression(t *testing.T) {
	plat, sess, cat := parseSetup(t)
	script := `
	u = LOAD 'users';
	adults = FILTER u BY country != 'dé' AND age >= 18;
	f = FOREACH u GENERATE uid, country == 'dé' AS isde, age + 10 AS older;
	SPLIT u INTO grown IF country != 'dé' AND age >= 18, minor IF age < 18;
	STORE adults INTO '/out/na_adults';
	STORE f INTO '/out/na_f';
	STORE grown INTO '/out/na_grown';
	STORE minor INTO '/out/na_minor';
	`
	s, err := ParseScript("na", script, cat)
	if err != nil {
		t.Fatal(err)
	}

	api := NewScript("api")
	u := api.Load(cat["users"])
	pred := relop.And(
		relop.Cmp("!=", u.Col("country"), relop.LitString("dé")),
		relop.Cmp(">=", u.Col("age"), relop.LitInt(18)))
	wantPred := pred.String()
	wantExprs := exprStrings(
		u.Col("uid"),
		relop.Eq(u.Col("country"), relop.LitString("dé")),
		relop.Arith("+", u.Col("age"), relop.LitInt(10)))
	wantMinor := relop.Cmp("<", u.Col("age"), relop.LitInt(18)).String()

	roots := s.Roots()
	if len(roots) != 4 {
		t.Fatalf("%d stores", len(roots))
	}
	adults, f, grown, minor := roots[0].Children[0], roots[1].Children[0], roots[2].Children[0], roots[3].Children[0]
	if got := adults.Filter.String(); got != wantPred {
		t.Errorf("FILTER predicate = %s, want %s", got, wantPred)
	}
	if got := exprStrings(f.Exprs...); strings.Join(got, "; ") != strings.Join(wantExprs, "; ") {
		t.Errorf("FOREACH expressions = %v, want %v", got, wantExprs)
	}
	if got := grown.Filter.String(); got != wantPred {
		t.Errorf("SPLIT first predicate = %s, want %s", got, wantPred)
	}
	if got := minor.Filter.String(); got != wantMinor {
		t.Errorf("SPLIT second predicate = %s, want %s", got, wantMinor)
	}

	// The same rows as the API-built filter: uids 1, 2, 3 (uid 4 is 17).
	api.Store(u.Filter(pred), "/out/na_api")
	for _, sc := range []*Script{s, api} {
		if res, err := sc.RunTez(sess); err != nil || res.Status != am.DAGSucceeded {
			t.Fatalf("%s: %v %v", sc.Name, res.Status, err)
		}
	}
	uids := func(path string) []int64 {
		rows, err := relop.ReadStored(plat.FS, path)
		if err != nil {
			t.Fatal(err)
		}
		var out []int64
		for _, r := range rows {
			out = append(out, r[0].Int)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	want := uids("/out/na_api")
	if len(want) != 3 {
		t.Fatalf("API filter kept %v", want)
	}
	for _, path := range []string{"/out/na_adults", "/out/na_grown"} {
		if got := uids(path); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Errorf("%s kept uids %v, want %v", path, got, want)
		}
	}
}

// TestGroupKeyNames: a GROUP key that is a bare column keeps its base
// name; any other expression is k<i>, read off the parsed tree. `age + 1`
// used to be named after its first token (so `age + 1, age` gave two key
// columns called age) and `5` was named "5".
func TestGroupKeyNames(t *testing.T) {
	_, _, cat := parseSetup(t)
	for by, want := range map[string][]string{
		"age + 1, age":    {"k0", "age"},
		"5":               {"k0"},
		"country, (age)":  {"country", "age"},
		"country, -age":   {"country", "k1"},
		"age / 10, uid*2": {"k0", "k1"},
	} {
		s, err := ParseScript("g", "u = LOAD 'users'; g = GROUP u BY "+by+" GENERATE count(*) AS n; STORE g INTO '/o';", cat)
		if err != nil {
			t.Fatalf("BY %s: %v", by, err)
		}
		agg := s.Roots()[0].Children[0]
		var got []string
		for _, c := range agg.OutSchema.Cols[:len(agg.GroupBy)] {
			got = append(got, c.Name)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("GROUP u BY %s: key columns %v, want %v", by, got, want)
		}
	}
}

// TestScriptExplain: the script's DAG through the one renderer
// (relop.ExplainDAG): vertices with their sources and sinks, edges with
// their movement, and the stages section.
func TestScriptExplain(t *testing.T) {
	_, _, cat := parseSetup(t)
	s, err := ParseScript("ex", `
	u = LOAD 'users';
	e = LOAD 'events';
	j = JOIN u BY uid, e BY uid;
	g = GROUP j BY country GENERATE sum(n) AS events;
	STORE g INTO '/out/ex';
	`, cat)
	if err != nil {
		t.Fatal(err)
	}
	text, err := s.Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"tez dag ex:\n", "sources=1", "sinks=1", "SCATTER_GATHER",
		"stages:\n", "group join\n", "group agg\n", "emit sink -> ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
	if got := strings.Count(text, "  vertex "); got != 4 {
		t.Errorf("%d vertices, want two scans, the join and the aggregate:\n%s", got, text)
	}
	if got := strings.Count(text, "  edge "); got != 3 {
		t.Errorf("%d edges, want 3:\n%s", got, text)
	}
	if _, err := NewScript("empty").Explain(); err == nil {
		t.Error("explained a script that stores nothing")
	}
}

// FuzzParseScript: no script text panics splitStatements, the statement
// grammar or the shared expression grammar under it.
func FuzzParseScript(f *testing.F) {
	for _, src := range []string{
		`u = LOAD 'users'; e = LOAD 'events'; adults = FILTER u BY age >= 18;
		j = JOIN adults BY uid, e BY uid; agg = GROUP j BY country GENERATE sum(n) AS events;
		STORE agg INTO '/out/pp_agg';`,
		`e = LOAD 'events'; ids = FOREACH e GENERATE uid, n * 2 AS doubled;
		SPLIT ids INTO small IF uid < 2, big IF uid >= 2; all = UNION small, big; d = DISTINCT all;
		o = ORDER d BY doubled DESC LIMIT 3 PARTITIONS 2; STORE o INTO '/o'; STORE small INTO '/s';`,
		`u = LOAD 'users'; e = LOAD 'events'; j = SKEWJOIN e BY uid, u BY uid PARTITIONS 3;
		c = GROUP j BY kind GENERATE count(*) AS n; STORE c INTO '/o';`,
		"-- comment\nu = LOAD 'users'; v = FILTER u BY country != 'dé' AND age BETWEEN 1 AND 99; STORE v INTO '/o';",
		`u = LOAD 'users'; v = GROUP u BY uid GENERATE median(age); STORE v INTO '/o';`,
		`u = LOAD 'users' extra; STORE u INTO '/o';`, `u = LOAD 'users'; STORE u INTO 1;`, ``,
	} {
		f.Add(src)
	}
	cat := Catalog{
		"users":  {Name: "users", Schema: row.NewSchema("uid:int", "country", "age:int")},
		"events": {Name: "events", Schema: row.NewSchema("uid:int", "kind", "n:int")},
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseScript("fuzz", src, cat)
		if err == nil && len(s.Roots()) == 0 {
			t.Fatalf("%q parsed to a script that stores nothing", src)
		}
	})
}

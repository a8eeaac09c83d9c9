package pig

import (
	"testing"

	"tez/internal/hive"
	"tez/internal/relop"
	"tez/internal/row"
)

// bareExpr reads src with the expression grammar alone: relop's
// Parser.Expr to the end of the input, then Resolve against schema.
func bareExpr(src string, schema row.Schema) (*relop.Expr, error) {
	p, err := relop.NewParser(src)
	if err != nil {
		return nil, err
	}
	tree, err := p.Expr()
	if err == nil {
		err = p.ExpectEOF()
	}
	if err != nil {
		return nil, err
	}
	e, _, err := relop.Resolve(tree, schema)
	return e, err
}

// TestOneExpressionGrammar: an expression means the same thing at each of
// its three front doors — a Hive WHERE, a Pig FILTER and the bare
// expression grammar over the same schema resolve it to the same tree. There is one lexer
// and one grammar, so this can only fail if a front end grows its own
// again (or folds case where it should not: Hive lower-cases identifiers,
// never literals).
func TestOneExpressionGrammar(t *testing.T) {
	table := &relop.Table{Name: "users", Schema: row.NewSchema("u.uid:int", "u.country", "u.age:int")}
	eng := hive.NewEngine()
	eng.Register(table)
	cat := Catalog{"users": table}

	filter := func(n *relop.Node) *relop.Expr {
		for n.Op != "filter" {
			if len(n.Children) != 1 {
				t.Fatalf("no filter above %s", n.Op)
			}
			n = n.Children[0]
		}
		return n.Filter
	}
	for _, src := range []string{
		// precedence and parentheses
		"age + 1 * 2 > 3",
		"(age + 1) * 2 > 3",
		"age / 2 * 3 >= 1.5",
		"age - uid - 1 = 0",
		"uid = 1 OR age > 2 AND country = 'de'",
		"(uid = 1 OR age > 2) AND country = 'de'",
		"NOT age > 1 OR uid = 2",
		"NOT (age > 1 OR uid = 2)",
		"NOT NOT age > 1",
		// unary minus
		"-age < -1",
		"age - -1 = 2",
		"-(age + 1) * 2 < 0",
		// the three spellings of the comparison operators
		"age <> 1", "age != 1", "age == 1", "age = 1", "age <= 1", "age >= 1",
		// BETWEEN and IN, desugared, binding tighter than AND
		"age BETWEEN 18 AND 30",
		"age BETWEEN 18 AND 30 AND uid > 1",
		"age + 1 BETWEEN uid AND uid * 2",
		"country IN ('de', 'us')",
		"NOT uid IN (1, 2, 3) AND age > 1",
		// qualified names
		"u.age > 1 OR u.uid = 2",
		"u.age BETWEEN u.uid AND 99",
		// a non-ASCII literal before further operators; literal case kept
		"country != 'dé' AND age >= 18",
		"country = 'Zürich' OR country IN ('ÅL', 'dé') OR age + 10 > 27",
	} {
		want, err := bareExpr(src, table.Schema)
		if err != nil {
			t.Errorf("bareExpr(%q): %v", src, err)
			continue
		}
		roots, err := eng.Plan("SELECT uid FROM users u WHERE "+src, "/out/g", false)
		if err != nil {
			t.Errorf("hive WHERE %s: %v", src, err)
		} else if got := filter(roots[0]).String(); got != want.String() {
			t.Errorf("hive WHERE %s = %s, the expression grammar says %s", src, got, want)
		}
		s, err := ParseScript("g", "u = LOAD 'users'; f = FILTER u BY "+src+"; STORE f INTO '/out/g';", cat)
		if err != nil {
			t.Errorf("pig FILTER u BY %s: %v", src, err)
		} else if got := filter(s.Roots()[0]).String(); got != want.String() {
			t.Errorf("pig FILTER u BY %s = %s, the expression grammar says %s", src, got, want)
		}
	}
}

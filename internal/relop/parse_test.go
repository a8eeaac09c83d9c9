package relop

import (
	"fmt"
	"testing"

	"tez/internal/row"
)

// parseExpr parses src as one whole expression and resolves it against
// schema, the way the statement grammars of internal/hive and internal/pig
// reach the expression language: Parser.Expr, then Resolve.
func parseExpr(src string, schema row.Schema) (*Expr, error) {
	p, err := NewParser(src)
	var tree *ExprTree
	if err == nil {
		tree, err = p.Expr()
	}
	if err == nil {
		err = p.ExpectEOF()
	}
	var e *Expr
	if err == nil {
		e, _, err = Resolve(tree, schema)
	}
	if err != nil {
		return nil, fmt.Errorf("relop: %w in %q", err, src)
	}
	return e, nil
}

func TestParseExprEvaluation(t *testing.T) {
	schema := row.NewSchema("a:int", "b:float", "name")
	r := row.Row{row.Int(10), row.Float(2.5), row.String("x")}
	cases := []struct {
		src  string
		want row.Value
	}{
		{"a", row.Int(10)},
		{"a + 5", row.Int(15)},
		{"a * b", row.Float(25)},
		{"a - 2 * 3", row.Int(4)},
		{"(a - 2) * 3", row.Int(24)},
		{"a / 4", row.Float(2.5)},
		{"-a", row.Int(-10)},
		{"a >= 10", row.Int(1)},
		{"a != 10", row.Int(0)},
		{"a <> 10", row.Int(0)},
		{"a == 10", row.Int(1)},
		{"name = 'x'", row.Int(1)},
		{"name = 'y'", row.Int(0)},
		{"a > 5 AND b < 3", row.Int(1)},
		{"a > 50 OR name = 'x'", row.Int(1)},
		{"NOT a > 50", row.Int(1)},
		{"3.5 + 1", row.Float(4.5)},
	}
	for _, c := range cases {
		e, err := parseExpr(c.src, schema)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		got := e.Eval(r)
		if row.Compare(got, c.want) != 0 {
			t.Fatalf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseExprErrors(t *testing.T) {
	schema := row.NewSchema("a:int")
	bad := []string{
		"", "a +", "unknowncol", "a > ", "(a", "a ) b", "'unterminated",
		"a # 2", "a 5",
	}
	for _, src := range bad {
		if _, err := parseExpr(src, schema); err == nil {
			t.Fatalf("parsed invalid expression %q", src)
		}
	}
}

func TestParseExprQualifiedNames(t *testing.T) {
	schema := row.NewSchema("t.a:int", "u.a:int")
	e, err := parseExpr("u.a + t.a", schema)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Eval(row.Row{row.Int(1), row.Int(2)})
	if got.AsInt() != 3 {
		t.Fatalf("got %v", got)
	}
}

// TestParseExprBetweenIn: BETWEEN and IN are part of the one grammar, so
// the bare expression grammar (and Pig) reads them as Hive always has: desugared to AND / OR
// of comparisons, binding tighter than AND.
func TestParseExprBetweenIn(t *testing.T) {
	schema := row.NewSchema("a:int", "name")
	for src, want := range map[string]string{
		"a BETWEEN 1 AND 5 AND name = 'x'": "((($0 >= 1) and ($0 <= 5)) and ($1 = x))",
		"name IN ('x', 'y') OR a IN (1)":   "((($1 = x) or ($1 = y)) or ($0 = 1))",
		"NOT a BETWEEN 1 + 1 AND 2 * 3":    "not (($0 >= (1 + 1)) and ($0 <= (2 * 3)))",
	} {
		e, err := parseExpr(src, schema)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if got := e.String(); got != want {
			t.Errorf("%q = %s, want %s", src, got, want)
		}
	}
}

// TestResolveAgg: the one call-lowering function accepts a known
// aggregate of one argument, * only under count, and nothing else.
func TestResolveAgg(t *testing.T) {
	schema := row.NewSchema("a:int", "b:float")
	call := func(src string) *ExprTree {
		t.Helper()
		p, err := NewParser(src)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := p.Expr()
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return tree
	}
	for _, src := range []string{"count(*)", "COUNT(a)", "sum(a + b)", "avg(b)", "min(a)", "max(-a)"} {
		def, err := ResolveAgg(call(src), schema, "out")
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if def.Name != "out" || (def.Arg == nil) != (src == "count(*)") {
			t.Errorf("%s lowered to %+v", src, def)
		}
	}
	for _, src := range []string{
		"sum(*)", "avg(*)", "min(*)", "max(*)", "median(a)", "sum()", "sum(a, b)",
		"count(* + 1)", "sum(nope)", "sum(sum(a))", "a", "a + 1",
	} {
		if def, err := ResolveAgg(call(src), schema, "out"); err == nil {
			t.Errorf("%s accepted as %+v", src, def)
		}
	}
}

// TestParserHelpers: the literal helpers report what they found, and Int
// returns the conversion error instead of a wrapped-around number.
func TestParserHelpers(t *testing.T) {
	p, err := NewParser("Name 'str' 42 99999999999999999999 <> ==")
	if err != nil {
		t.Fatal(err)
	}
	if s, err := p.Ident(); err != nil || s != "Name" {
		t.Fatalf("Ident = %q, %v", s, err)
	}
	if _, err := p.Int(); err == nil {
		t.Fatal("Int accepted a string literal")
	}
	if s, err := p.Str(); err != nil || s != "str" {
		t.Fatalf("Str = %q, %v", s, err)
	}
	if n, err := p.Int(); err != nil || n != 42 {
		t.Fatalf("Int = %d, %v", n, err)
	}
	if n, err := p.Int(); err == nil {
		t.Fatalf("Int read an out-of-range literal as %d", n)
	}
	for _, bad := range []string{"a ! b", "a # b", "a; b", "a | b", "'open"} {
		if _, err := NewParser(bad); err == nil {
			t.Errorf("lexed %q", bad)
		}
	}
}

// FuzzParseExpr: no input panics or exhausts the stack, and whatever
// parses and resolves passes validateExpr, the executor's own gate.
func FuzzParseExpr(f *testing.F) {
	for _, src := range []string{
		"a", "a - 2 * 3", "(a - 2) * 3", "-a", "a <> 10", "a == 10", "name = 'x'",
		"a > 5 AND b < 3", "a > 50 OR name = 'x'", "NOT a > 50", "3.5 + 1",
		"a BETWEEN 1 AND 5", "name IN ('x', 'y')", "t.a + 1", "sum(a)", "count(*)",
		"a +", "(a", "a ) b", "'unterminated", "a # 2", "a 5", "1.2.3", "99999999999999999999",
	} {
		f.Add(src)
	}
	schema := row.NewSchema("t.a:int", "b:float", "name")
	f.Fuzz(func(t *testing.T, src string) {
		e, err := parseExpr(src, schema)
		if err != nil {
			return
		}
		if err := validateExpr(e); err != nil {
			t.Fatalf("%q resolved to an invalid tree: %v", src, err)
		}
	})
}

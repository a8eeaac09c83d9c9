package pig

import (
	"fmt"
	"strings"

	"tez/internal/relop"
	"tez/internal/row"
)

// Catalog resolves LOAD names to tables.
type Catalog map[string]*relop.Table

// ParseScript parses a PigLatin-style script (§5.3's procedural language
// in miniature) into an executable Script. Statements end with ';' and
// `--` starts a line comment. Supported statements:
//
//	A = LOAD 'table';
//	B = FILTER A BY <expr>;
//	C = FOREACH A GENERATE <expr> [AS name], ...;
//	D = GROUP A BY col, ... GENERATE count(*) AS n, sum(<expr>) AS s, ...;
//	E = JOIN A BY col, B BY col;
//	F = SKEWJOIN A BY col, B BY col [PARTITIONS n];
//	G = ORDER A BY col [DESC], ... [LIMIT n] [PARTITIONS n];
//	H = DISTINCT A;
//	I = UNION A, B, ...;
//	SPLIT A INTO X IF <expr>, Y IF <expr>, ...;
//	STORE A INTO '/out/path';
//
// Statements are parsed on relop's token stream and expressions are
// relop's expression language (relop.Parser.Expr): comparisons, BETWEEN,
// IN, arithmetic, AND/OR/NOT, 'string' literals. Names are case-sensitive.
func ParseScript(name, src string, cat Catalog) (*Script, error) {
	s := NewScript(name)
	env := map[string]*Dataset{}
	stored := 0
	for i, stmtSrc := range splitStatements(src) {
		if strings.TrimSpace(stmtSrc) == "" {
			continue
		}
		if err := parseStatement(s, env, cat, stmtSrc, &stored); err != nil {
			return nil, fmt.Errorf("pig: statement %d (%q): %w", i+1, strings.TrimSpace(stmtSrc), err)
		}
	}
	if stored == 0 {
		return nil, fmt.Errorf("pig: script %s has no STORE statement", name)
	}
	return s, nil
}

// splitStatements splits on ';' outside quotes and strips -- comments.
func splitStatements(src string) []string {
	var out []string
	var cur strings.Builder
	inStr := false
	i := 0
	rs := []rune(src)
	for i < len(rs) {
		r := rs[i]
		switch {
		case r == '\'':
			inStr = !inStr
			cur.WriteRune(r)
			i++
		case !inStr && r == '-' && i+1 < len(rs) && rs[i+1] == '-':
			for i < len(rs) && rs[i] != '\n' {
				i++
			}
		case !inStr && r == ';':
			out = append(out, cur.String())
			cur.Reset()
			i++
		default:
			cur.WriteRune(r)
			i++
		}
	}
	out = append(out, cur.String())
	return out
}

// parseExpr parses one expression at the current token and resolves it
// against schema; the tree is returned too, for the callers that name an
// output column after a bare identifier.
func parseExpr(p *relop.Parser, schema row.Schema) (*relop.Expr, *relop.ExprTree, error) {
	tree, err := p.Expr()
	if err != nil {
		return nil, nil, err
	}
	e, _, err := relop.Resolve(tree, schema)
	return e, tree, err
}

// relation consumes a relation name and looks it up.
func relation(p *relop.Parser, env map[string]*Dataset) (*Dataset, error) {
	n, err := p.Ident()
	if err != nil {
		return nil, err
	}
	d, ok := env[n]
	if !ok {
		return nil, fmt.Errorf("unknown relation %q", n)
	}
	return d, nil
}

func parseStatement(s *Script, env map[string]*Dataset, cat Catalog, src string, stored *int) error {
	p, err := relop.NewParser(src)
	if err != nil {
		return err
	}

	// Non-assignment forms first.
	if p.Kw("split") {
		return parseSplit(env, p)
	}
	if p.Kw("store") {
		d, err := relation(p, env)
		if err != nil {
			return err
		}
		if err := p.ExpectKw("into"); err != nil {
			return err
		}
		path, err := p.Str()
		if err != nil {
			return err
		}
		s.Store(d, path)
		*stored++
		return p.ExpectEOF()
	}

	// NAME = <operator> ...
	name, err := p.Ident()
	if err != nil {
		return err
	}
	if !p.Op("=") {
		return fmt.Errorf("expected = after %q", name)
	}
	d, err := parseOperator(s, env, cat, p)
	if err != nil {
		return err
	}
	env[name] = d
	return p.ExpectEOF()
}

func parseOperator(s *Script, env map[string]*Dataset, cat Catalog, p *relop.Parser) (*Dataset, error) {
	switch {
	case p.Kw("load"):
		tn, err := p.Str()
		if err != nil {
			return nil, err
		}
		t, ok := cat[strings.ToLower(tn)]
		if !ok {
			return nil, fmt.Errorf("unknown table %q", tn)
		}
		return s.Load(t), nil

	case p.Kw("filter"):
		d, err := relation(p, env)
		if err != nil {
			return nil, err
		}
		if err := p.ExpectKw("by"); err != nil {
			return nil, err
		}
		pred, _, err := parseExpr(p, d.Schema())
		if err != nil {
			return nil, err
		}
		return d.Filter(pred), nil

	case p.Kw("foreach"):
		d, err := relation(p, env)
		if err != nil {
			return nil, err
		}
		if err := p.ExpectKw("generate"); err != nil {
			return nil, err
		}
		var exprs []*relop.Expr
		var names []string
		var kinds []row.Kind
		for {
			e, tree, err := parseExpr(p, d.Schema())
			if err != nil {
				return nil, err
			}
			n := fmt.Sprintf("c%d", len(names))
			k := row.KindFloat
			// A bare column keeps its name and kind.
			if tree.Kind == "ident" {
				c := d.Schema().Cols[e.Col]
				n, k = baseName(c.Name), c.Kind
			}
			if p.Kw("as") {
				if n, err = p.Ident(); err != nil {
					return nil, err
				}
			}
			exprs = append(exprs, e)
			names = append(names, n)
			kinds = append(kinds, k)
			if !p.Op(",") {
				break
			}
		}
		return d.ForEach(exprs, names, kinds), nil

	case p.Kw("group"):
		d, err := relation(p, env)
		if err != nil {
			return nil, err
		}
		if err := p.ExpectKw("by"); err != nil {
			return nil, err
		}
		var keys []*relop.Expr
		var keyNames []string
		for {
			e, tree, err := parseExpr(p, d.Schema())
			if err != nil {
				return nil, err
			}
			// A bare column keeps its base name; anything else is k<i>.
			n := fmt.Sprintf("k%d", len(keys))
			if tree.Kind == "ident" {
				n = baseName(tree.Name)
			}
			keys = append(keys, e)
			keyNames = append(keyNames, n)
			if !p.Op(",") {
				break
			}
		}
		if err := p.ExpectKw("generate"); err != nil {
			return nil, err
		}
		aggs, err := parseAggs(p, d.Schema())
		if err != nil {
			return nil, err
		}
		return d.GroupBy(keys, keyNames, aggs), nil

	case p.Kw("join"):
		return parseJoin(env, p, false)

	case p.Kw("skewjoin"):
		return parseJoin(env, p, true)

	case p.Kw("order"):
		d, err := relation(p, env)
		if err != nil {
			return nil, err
		}
		if err := p.ExpectKw("by"); err != nil {
			return nil, err
		}
		var keys []*relop.Expr
		var desc []bool
		for {
			e, _, err := parseExpr(p, d.Schema())
			if err != nil {
				return nil, err
			}
			dsc := p.Kw("desc")
			if !dsc {
				p.Kw("asc")
			}
			keys = append(keys, e)
			desc = append(desc, dsc)
			if !p.Op(",") {
				break
			}
		}
		limit, parts := 0, 0
		if p.Kw("limit") {
			if limit, err = p.Int(); err != nil {
				return nil, err
			}
		}
		if p.Kw("partitions") {
			if parts, err = p.Int(); err != nil {
				return nil, err
			}
		}
		return d.OrderBy(keys, desc, limit, parts), nil

	case p.Kw("distinct"):
		d, err := relation(p, env)
		if err != nil {
			return nil, err
		}
		return d.Distinct(), nil

	case p.Kw("union"):
		first, err := relation(p, env)
		if err != nil {
			return nil, err
		}
		var rest []*Dataset
		for p.Op(",") {
			d, err := relation(p, env)
			if err != nil {
				return nil, err
			}
			rest = append(rest, d)
		}
		return first.Union(rest...), nil
	}
	return nil, fmt.Errorf("unknown operator near %q", p.Peek().Text)
}

// parseJoin handles [SKEW]JOIN A BY e, B BY e [PARTITIONS n].
func parseJoin(env map[string]*Dataset, p *relop.Parser, skew bool) (*Dataset, error) {
	left, err := relation(p, env)
	if err != nil {
		return nil, err
	}
	if err := p.ExpectKw("by"); err != nil {
		return nil, err
	}
	lk, _, err := parseExpr(p, left.Schema())
	if err != nil {
		return nil, err
	}
	if !p.Op(",") {
		return nil, fmt.Errorf("expected , between join sides")
	}
	right, err := relation(p, env)
	if err != nil {
		return nil, err
	}
	if err := p.ExpectKw("by"); err != nil {
		return nil, err
	}
	rk, _, err := parseExpr(p, right.Schema())
	if err != nil {
		return nil, err
	}
	parts := 0
	if p.Kw("partitions") {
		if parts, err = p.Int(); err != nil {
			return nil, err
		}
	}
	if skew {
		return left.SkewJoin(right, []*relop.Expr{lk}, []*relop.Expr{rk}, parts), nil
	}
	return left.Join(right, []*relop.Expr{lk}, []*relop.Expr{rk}), nil
}

// parseAggs parses "func(expr|*) [AS name], ...".
func parseAggs(p *relop.Parser, schema row.Schema) ([]relop.AggDef, error) {
	var out []relop.AggDef
	for {
		call, err := p.Expr()
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%s_%d", call.Name, len(out))
		if p.Kw("as") {
			if name, err = p.Ident(); err != nil {
				return nil, err
			}
		}
		def, err := relop.ResolveAgg(call, schema, name)
		if err != nil {
			return nil, err
		}
		out = append(out, def)
		if !p.Op(",") {
			return out, nil
		}
	}
}

// parseSplit handles SPLIT A INTO X IF e, Y IF e, ...
func parseSplit(env map[string]*Dataset, p *relop.Parser) error {
	d, err := relation(p, env)
	if err != nil {
		return err
	}
	if err := p.ExpectKw("into"); err != nil {
		return err
	}
	for {
		branch, err := p.Ident()
		if err != nil {
			return err
		}
		if err := p.ExpectKw("if"); err != nil {
			return err
		}
		pred, _, err := parseExpr(p, d.Schema())
		if err != nil {
			return err
		}
		env[branch] = d.Filter(pred)
		if !p.Op(",") {
			break
		}
	}
	return p.ExpectEOF()
}

func baseName(qualified string) string {
	if i := strings.LastIndexByte(qualified, '.'); i >= 0 {
		return qualified[i+1:]
	}
	return qualified
}

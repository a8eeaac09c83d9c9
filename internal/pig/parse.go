package pig

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

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
// Expressions use the relop expression syntax (comparisons, arithmetic,
// AND/OR/NOT, 'string' literals).
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

// stmtTok is one token with its source span (expressions are re-sliced
// from the original text and handed to relop.ParseExpr).
type stmtTok struct {
	kind       string // word, str, op
	text       string
	start, end int
}

func tokenize(src string) ([]stmtTok, error) {
	var toks []stmtTok
	rs := []rune(src)
	i := 0
	for i < len(rs) {
		r := rs[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '\'':
			j := i + 1
			for j < len(rs) && rs[j] != '\'' {
				j++
			}
			if j >= len(rs) {
				return nil, fmt.Errorf("unterminated string")
			}
			toks = append(toks, stmtTok{"str", string(rs[i+1 : j]), i, j + 1})
			i = j + 1
		case unicode.IsLetter(r) || r == '_' || unicode.IsDigit(r):
			j := i
			for j < len(rs) && (unicode.IsLetter(rs[j]) || unicode.IsDigit(rs[j]) || rs[j] == '_' || rs[j] == '.') {
				j++
			}
			toks = append(toks, stmtTok{"word", string(rs[i:j]), i, j})
			i = j
		default:
			two := ""
			if i+1 < len(rs) {
				two = string(rs[i : i+2])
			}
			if two == "<=" || two == ">=" || two == "!=" || two == "<>" || two == "==" {
				toks = append(toks, stmtTok{"op", two, i, i + 2})
				i += 2
			} else {
				toks = append(toks, stmtTok{"op", string(r), i, i + 1})
				i++
			}
		}
	}
	return toks, nil
}

// stmtParser walks a single statement's tokens.
type stmtParser struct {
	src  []rune // token offsets index runes, not bytes
	toks []stmtTok
	pos  int
}

func (p *stmtParser) peek() stmtTok {
	if p.pos >= len(p.toks) {
		return stmtTok{kind: "eof"}
	}
	return p.toks[p.pos]
}

func (p *stmtParser) kw(w string) bool {
	t := p.peek()
	if t.kind == "word" && strings.EqualFold(t.text, w) {
		p.pos++
		return true
	}
	return false
}

func (p *stmtParser) expectKw(w string) error {
	if !p.kw(w) {
		return fmt.Errorf("expected %s near %q", w, p.peek().text)
	}
	return nil
}

func (p *stmtParser) op(text string) bool {
	t := p.peek()
	if t.kind == "op" && t.text == text {
		p.pos++
		return true
	}
	return false
}

func (p *stmtParser) word() (string, error) {
	t := p.peek()
	if t.kind != "word" {
		return "", fmt.Errorf("expected identifier near %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *stmtParser) str() (string, error) {
	t := p.peek()
	if t.kind != "str" {
		return "", fmt.Errorf("expected 'string' near %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *stmtParser) intLit() (int, error) {
	t := p.peek()
	if t.kind != "word" {
		return 0, fmt.Errorf("expected number near %q", t.text)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, err
	}
	p.pos++
	return n, nil
}

// exprUntil consumes tokens (balancing parentheses) up to one of the stop
// keywords or a comma at depth 0, and parses the consumed span.
func (p *stmtParser) exprUntil(schema row.Schema, stops ...string) (*relop.Expr, error) {
	depth := 0
	start := p.pos
	for p.pos < len(p.toks) {
		t := p.peek()
		if t.kind == "op" && t.text == "(" {
			depth++
		}
		if t.kind == "op" && t.text == ")" {
			if depth == 0 {
				break // a closing paren of the surrounding construct
			}
			depth--
		}
		if depth == 0 {
			if t.kind == "op" && t.text == "," {
				break
			}
			stop := false
			for _, s := range stops {
				if t.kind == "word" && strings.EqualFold(t.text, s) {
					stop = true
				}
			}
			if stop {
				break
			}
		}
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("empty expression near %q", p.peek().text)
	}
	span := string(p.src[p.toks[start].start:p.toks[p.pos-1].end])
	return relop.ParseExpr(span, schema)
}

func parseStatement(s *Script, env map[string]*Dataset, cat Catalog, src string, stored *int) error {
	toks, err := tokenize(src)
	if err != nil {
		return err
	}
	p := &stmtParser{src: []rune(src), toks: toks}

	// Non-assignment forms first.
	if p.kw("split") {
		return parseSplit(s, env, p)
	}
	if p.kw("store") {
		from, err := p.word()
		if err != nil {
			return err
		}
		d, ok := env[from]
		if !ok {
			return fmt.Errorf("unknown relation %q", from)
		}
		if err := p.expectKw("into"); err != nil {
			return err
		}
		path, err := p.str()
		if err != nil {
			return err
		}
		s.Store(d, path)
		*stored++
		return p.end()
	}

	// NAME = <operator> ...
	name, err := p.word()
	if err != nil {
		return err
	}
	if !p.op("=") {
		return fmt.Errorf("expected = after %q", name)
	}
	d, err := parseOperator(s, env, cat, p)
	if err != nil {
		return err
	}
	env[name] = d
	return p.end()
}

func (p *stmtParser) end() error {
	if p.pos != len(p.toks) {
		return fmt.Errorf("trailing input near %q", p.peek().text)
	}
	return nil
}

func parseOperator(s *Script, env map[string]*Dataset, cat Catalog, p *stmtParser) (*Dataset, error) {
	rel := func() (*Dataset, error) {
		n, err := p.word()
		if err != nil {
			return nil, err
		}
		d, ok := env[n]
		if !ok {
			return nil, fmt.Errorf("unknown relation %q", n)
		}
		return d, nil
	}

	switch {
	case p.kw("load"):
		tn, err := p.str()
		if err != nil {
			return nil, err
		}
		t, ok := cat[strings.ToLower(tn)]
		if !ok {
			return nil, fmt.Errorf("unknown table %q", tn)
		}
		return s.Load(t), nil

	case p.kw("filter"):
		d, err := rel()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		pred, err := p.exprUntil(d.Schema())
		if err != nil {
			return nil, err
		}
		return d.Filter(pred), nil

	case p.kw("foreach"):
		d, err := rel()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("generate"); err != nil {
			return nil, err
		}
		var exprs []*relop.Expr
		var names []string
		var kinds []row.Kind
		for {
			startPos := p.pos
			e, err := p.exprUntil(d.Schema(), "as")
			if err != nil {
				return nil, err
			}
			n := fmt.Sprintf("c%d", len(names))
			k := row.KindFloat
			// A bare column keeps its name and kind.
			if p.pos == startPos+1 && p.toks[startPos].kind == "word" {
				idx := d.Schema().Index(p.toks[startPos].text)
				if idx >= 0 {
					n = baseName(d.Schema().Cols[idx].Name)
					k = d.Schema().Cols[idx].Kind
				}
			}
			if p.kw("as") {
				an, err := p.word()
				if err != nil {
					return nil, err
				}
				n = an
			}
			exprs = append(exprs, e)
			names = append(names, n)
			kinds = append(kinds, k)
			if !p.op(",") {
				break
			}
		}
		return d.ForEach(exprs, names, kinds), nil

	case p.kw("group"):
		d, err := rel()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		var keys []*relop.Expr
		var keyNames []string
		for {
			startPos := p.pos
			e, err := p.exprUntil(d.Schema(), "generate")
			if err != nil {
				return nil, err
			}
			n := fmt.Sprintf("k%d", len(keys))
			if p.toks[startPos].kind == "word" {
				n = baseName(p.toks[startPos].text)
			}
			keys = append(keys, e)
			keyNames = append(keyNames, n)
			if !p.op(",") {
				break
			}
		}
		if err := p.expectKw("generate"); err != nil {
			return nil, err
		}
		aggs, err := parseAggs(p, d.Schema())
		if err != nil {
			return nil, err
		}
		return d.GroupBy(keys, keyNames, aggs), nil

	case p.kw("join"), strings.EqualFold(p.peek().text, "skewjoin"):
		skew := p.kw("skewjoin")
		left, err := rel()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		lk, err := p.exprUntil(left.Schema())
		if err != nil {
			return nil, err
		}
		if !p.op(",") {
			return nil, fmt.Errorf("expected , between join sides")
		}
		right, err := rel()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		rk, err := p.exprUntil(right.Schema(), "partitions")
		if err != nil {
			return nil, err
		}
		parts := 0
		if p.kw("partitions") {
			parts, err = p.intLit()
			if err != nil {
				return nil, err
			}
		}
		if skew {
			return left.SkewJoin(right, []*relop.Expr{lk}, []*relop.Expr{rk}, parts), nil
		}
		return left.Join(right, []*relop.Expr{lk}, []*relop.Expr{rk}), nil

	case p.kw("order"):
		d, err := rel()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		var keys []*relop.Expr
		var desc []bool
		for {
			e, err := p.exprUntil(d.Schema(), "desc", "asc", "limit", "partitions")
			if err != nil {
				return nil, err
			}
			dsc := false
			if p.kw("desc") {
				dsc = true
			} else {
				p.kw("asc")
			}
			keys = append(keys, e)
			desc = append(desc, dsc)
			if !p.op(",") {
				break
			}
		}
		limit, parts := 0, 0
		if p.kw("limit") {
			if limit, err = p.intLit(); err != nil {
				return nil, err
			}
		}
		if p.kw("partitions") {
			if parts, err = p.intLit(); err != nil {
				return nil, err
			}
		}
		return d.OrderBy(keys, desc, limit, parts), nil

	case p.kw("distinct"):
		d, err := rel()
		if err != nil {
			return nil, err
		}
		return d.Distinct(), nil

	case p.kw("union"):
		first, err := rel()
		if err != nil {
			return nil, err
		}
		var rest []*Dataset
		for p.op(",") {
			d, err := rel()
			if err != nil {
				return nil, err
			}
			rest = append(rest, d)
		}
		return first.Union(rest...), nil
	}
	return nil, fmt.Errorf("unknown operator near %q", p.peek().text)
}

// parseAggs parses "func(expr|*) AS name, ...".
func parseAggs(p *stmtParser, schema row.Schema) ([]relop.AggDef, error) {
	var out []relop.AggDef
	for {
		fn, err := p.word()
		if err != nil {
			return nil, err
		}
		fn = strings.ToLower(fn)
		switch fn {
		case "count", "sum", "avg", "min", "max":
		default:
			return nil, fmt.Errorf("unknown aggregate %q", fn)
		}
		if !p.op("(") {
			return nil, fmt.Errorf("expected ( after %s", fn)
		}
		var arg *relop.Expr
		if p.op("*") {
			if fn != "count" {
				return nil, fmt.Errorf("%s(*) is not supported", fn)
			}
		} else {
			arg, err = p.exprUntil(schema)
			if err != nil {
				return nil, err
			}
		}
		if !p.op(")") {
			return nil, fmt.Errorf("expected ) after %s argument", fn)
		}
		name := fmt.Sprintf("%s_%d", fn, len(out))
		if p.kw("as") {
			if name, err = p.word(); err != nil {
				return nil, err
			}
		}
		out = append(out, relop.AggDef{Func: fn, Arg: arg, Name: name})
		if !p.op(",") {
			return out, nil
		}
	}
}

// parseSplit handles SPLIT A INTO X IF e, Y IF e, ...
func parseSplit(s *Script, env map[string]*Dataset, p *stmtParser) error {
	from, err := p.word()
	if err != nil {
		return err
	}
	d, ok := env[from]
	if !ok {
		return fmt.Errorf("unknown relation %q", from)
	}
	if err := p.expectKw("into"); err != nil {
		return err
	}
	for {
		branch, err := p.word()
		if err != nil {
			return err
		}
		if err := p.expectKw("if"); err != nil {
			return err
		}
		pred, err := p.exprUntil(d.Schema())
		if err != nil {
			return err
		}
		env[branch] = d.Filter(pred)
		if !p.op(",") {
			break
		}
	}
	return p.end()
}

func baseName(qualified string) string {
	if i := strings.LastIndexByte(qualified, '.'); i >= 0 {
		return qualified[i+1:]
	}
	return qualified
}

package relop

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"tez/internal/row"
)

// This file is the one expression language of the repository: the lexer,
// the token-stream parser the Hive and Pig statement grammars are written
// on, the expression grammar, and the resolver that lowers a parsed tree
// against a schema. The front ends own only their statement grammars.

// TokKind classifies a Token. The zero value is the end of the input.
type TokKind uint8

const (
	TokEOF   TokKind = iota
	TokIdent         // letter or _ first, then letters, digits, _ and . (qualified names)
	TokInt           // ASCII digits
	TokFloat         // ASCII digits with a .
	TokStr           // '...' with no escapes; Text is the content
	TokOp            // <= >= != <> == = < > ( ) + - * / ,
)

// Token is one lexeme.
type Token struct {
	Kind TokKind
	Text string
}

func isDigit(r rune) bool { return r >= '0' && r <= '9' }

// lex splits src into tokens. A character outside the token set is an
// error here rather than an operator that fails later.
func lex(src string) ([]Token, error) {
	var toks []Token
	rs := []rune(src)
	for i := 0; i < len(rs); {
		r := rs[i]
		j := i + 1
		switch {
		case unicode.IsSpace(r):
		case r == '\'':
			for j < len(rs) && rs[j] != '\'' {
				j++
			}
			if j == len(rs) {
				return nil, fmt.Errorf("unterminated string literal")
			}
			toks = append(toks, Token{TokStr, string(rs[i+1 : j])})
			j++
		case isDigit(r):
			kind := TokInt
			for ; j < len(rs) && (isDigit(rs[j]) || rs[j] == '.'); j++ {
				if rs[j] == '.' {
					kind = TokFloat
				}
			}
			toks = append(toks, Token{kind, string(rs[i:j])})
		case unicode.IsLetter(r) || r == '_':
			for j < len(rs) && (unicode.IsLetter(rs[j]) || unicode.IsDigit(rs[j]) || rs[j] == '_' || rs[j] == '.') {
				j++
			}
			toks = append(toks, Token{TokIdent, string(rs[i:j])})
		case j < len(rs) && (rs[j] == '=' && strings.ContainsRune("<>!=", r) || r == '<' && rs[j] == '>'):
			j++
			toks = append(toks, Token{TokOp, string(rs[i:j])})
		case strings.ContainsRune("=<>()+-*/,", r):
			toks = append(toks, Token{TokOp, string(r)})
		default:
			return nil, fmt.Errorf("unexpected character %q", r)
		}
		i = j
	}
	return toks, nil
}

// Parser is a cursor over the tokens of one statement or expression.
// Errors carry no package prefix: each front end adds its own.
type Parser struct {
	toks  []Token
	pos   int
	depth int // parseUnary calls on the stack
}

// NewParser lexes src.
func NewParser(src string) (*Parser, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks}, nil
}

// Peek returns the current token without consuming it.
func (p *Parser) Peek() Token {
	if p.pos >= len(p.toks) {
		return Token{}
	}
	return p.toks[p.pos]
}

// accept consumes the current token if it has the kind and, ignoring
// case, one of the texts; it returns the matching text or "".
func (p *Parser) accept(kind TokKind, texts ...string) string {
	if t := p.Peek(); t.Kind == kind {
		for _, s := range texts {
			if strings.EqualFold(t.Text, s) {
				p.pos++
				return s
			}
		}
	}
	return ""
}

// Kw consumes the keyword (an identifier, matched ignoring case).
func (p *Parser) Kw(word string) bool { return p.accept(TokIdent, word) != "" }

// Op consumes the operator.
func (p *Parser) Op(text string) bool { return p.accept(TokOp, text) != "" }

// ExpectKw consumes the keyword or fails.
func (p *Parser) ExpectKw(word string) error {
	if !p.Kw(word) {
		return fmt.Errorf("expected %s near %q", strings.ToUpper(word), p.Peek().Text)
	}
	return nil
}

// ExpectOp consumes the operator or fails.
func (p *Parser) ExpectOp(text string) error {
	if !p.Op(text) {
		return fmt.Errorf("expected %q near %q", text, p.Peek().Text)
	}
	return nil
}

func (p *Parser) take(kind TokKind, what string) (string, error) {
	t := p.Peek()
	if t.Kind != kind {
		return "", fmt.Errorf("expected %s near %q", what, t.Text)
	}
	p.pos++
	return t.Text, nil
}

// Ident consumes an identifier and returns it as written.
func (p *Parser) Ident() (string, error) { return p.take(TokIdent, "identifier") }

// Str consumes a 'string' literal and returns its content.
func (p *Parser) Str() (string, error) { return p.take(TokStr, "'string'") }

// Int consumes an integer literal that fits an int.
func (p *Parser) Int() (int, error) {
	s, err := p.take(TokInt, "integer")
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(s)
}

// ExpectEOF fails unless every token has been consumed.
func (p *Parser) ExpectEOF() error {
	if t := p.Peek(); t.Kind != TokEOF {
		return fmt.Errorf("trailing input near %q", t.Text)
	}
	return nil
}

// ExprTree is a parsed, unresolved expression.
type ExprTree struct {
	// Kind: ident, int, float, str, star, call, binop, not
	Kind  string
	Name  string // ident as written (possibly qualified); call function, lower-cased
	Int   int64
	Float float64
	Str   string
	Op    string // binop: or and = != < <= > >= + - * /
	Args  []*ExprTree
}

func binop(op string, l, r *ExprTree) *ExprTree {
	return &ExprTree{Kind: "binop", Op: op, Args: []*ExprTree{l, r}}
}

// maxExprDepth bounds operand nesting (parentheses, call arguments, unary
// minus) so that no input can exhaust the stack.
const maxExprDepth = 500

// Expr parses one expression at the current token and stops by itself at
// the first token that cannot continue it: a comma, a closing
// parenthesis, a word that is not an operator, or the end. Precedence,
// loosest first: OR, AND, NOT, comparison / BETWEEN / IN (not
// associative), + -, * /, unary minus. BETWEEN and IN are desugared to
// AND / OR of comparisons; <> reads as != and == as =.
func (p *Parser) Expr() (*ExprTree, error) {
	return p.binary(p.parseAnd, TokIdent, "or")
}

// binary parses next (op next)* for one left-associative level.
func (p *Parser) binary(next func() (*ExprTree, error), kind TokKind, ops ...string) (*ExprTree, error) {
	left, err := next()
	for err == nil {
		op := p.accept(kind, ops...)
		if op == "" {
			return left, nil
		}
		var right *ExprTree
		if right, err = next(); err == nil {
			left = binop(op, left, right)
		}
	}
	return nil, err
}

func (p *Parser) parseAnd() (*ExprTree, error) { return p.binary(p.parseNot, TokIdent, "and") }
func (p *Parser) parseAdd() (*ExprTree, error) { return p.binary(p.parseMul, TokOp, "+", "-") }
func (p *Parser) parseMul() (*ExprTree, error) { return p.binary(p.parseUnary, TokOp, "*", "/") }

func (p *Parser) parseNot() (*ExprTree, error) {
	nots := 0
	for p.Kw("not") {
		nots++
	}
	e, err := p.parseCmp()
	for ; err == nil && nots > 0; nots-- {
		e = &ExprTree{Kind: "not", Args: []*ExprTree{e}}
	}
	return e, err
}

func (p *Parser) parseCmp() (*ExprTree, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	switch {
	case p.Kw("between"):
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.ExpectKw("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return binop("and", binop(">=", left, lo), binop("<=", left, hi)), nil
	case p.Kw("in"):
		if err := p.ExpectOp("("); err != nil {
			return nil, err
		}
		var out *ExprTree
		for {
			v, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			if eq := binop("=", left, v); out == nil {
				out = eq
			} else {
				out = binop("or", out, eq)
			}
			if !p.Op(",") {
				return out, p.ExpectOp(")")
			}
		}
	}
	op := p.accept(TokOp, "<=", ">=", "!=", "<>", "==", "=", "<", ">")
	switch op {
	case "":
		return left, nil
	case "<>":
		op = "!="
	case "==":
		op = "="
	}
	right, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	return binop(op, left, right), nil
}

func (p *Parser) parseUnary() (*ExprTree, error) {
	if p.depth++; p.depth > maxExprDepth {
		return nil, fmt.Errorf("expression nested deeper than %d", maxExprDepth)
	}
	defer func() { p.depth-- }()
	t := p.Peek()
	p.pos++
	switch t.Kind {
	case TokInt:
		n, err := strconv.ParseInt(t.Text, 10, 64)
		return &ExprTree{Kind: "int", Int: n}, err
	case TokFloat:
		f, err := strconv.ParseFloat(t.Text, 64)
		return &ExprTree{Kind: "float", Float: f}, err
	case TokStr:
		return &ExprTree{Kind: "str", Str: t.Text}, nil
	case TokIdent:
		if !p.Op("(") {
			return &ExprTree{Kind: "ident", Name: t.Text}, nil
		}
		// Any name parses as a call; ResolveAgg decides which exist.
		call := &ExprTree{Kind: "call", Name: strings.ToLower(t.Text)}
		if p.Op(")") {
			return call, nil
		}
		for {
			arg, err := p.Expr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, arg)
			if !p.Op(",") {
				return call, p.ExpectOp(")")
			}
		}
	case TokOp:
		switch t.Text {
		case "(":
			e, err := p.Expr()
			if err != nil {
				return nil, err
			}
			return e, p.ExpectOp(")")
		case "*":
			return &ExprTree{Kind: "star"}, nil
		case "-":
			e, err := p.parseUnary()
			return binop("-", &ExprTree{Kind: "int"}, e), err
		}
	}
	return nil, fmt.Errorf("unexpected token %q", t.Text)
}

// Resolve lowers a parsed expression against a schema, binding
// identifiers to column indices, and reports the kind it evaluates to
// (exprKind).
func Resolve(e *ExprTree, schema row.Schema) (*Expr, row.Kind, error) {
	x, err := bind(e, schema)
	if err != nil {
		return nil, 0, err
	}
	return x, exprKind(x, schema), nil
}

// bind lowers e against schema, binding identifiers to column indices.
func bind(e *ExprTree, schema row.Schema) (*Expr, error) {
	switch e.Kind {
	case "int":
		return LitInt(e.Int), nil
	case "float":
		return LitFloat(e.Float), nil
	case "str":
		return LitString(e.Str), nil
	case "ident":
		idx := schema.Index(e.Name)
		if idx < 0 {
			names := make([]string, len(schema.Cols))
			for i, c := range schema.Cols {
				names[i] = c.Name
			}
			return nil, fmt.Errorf("unknown column %q (have %v)", e.Name, names)
		}
		return Col(idx), nil
	case "binop":
		l, err := bind(e.Args[0], schema)
		if err != nil {
			return nil, err
		}
		r, err := bind(e.Args[1], schema)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "and":
			return And(l, r), nil
		case "or":
			return Or(l, r), nil
		case "=", "!=", "<", "<=", ">", ">=":
			return Cmp(e.Op, l, r), nil
		case "+", "-", "*", "/":
			return Arith(e.Op, l, r), nil
		}
		return nil, fmt.Errorf("unknown operator %q", e.Op)
	case "not":
		a, err := bind(e.Args[0], schema)
		if err != nil {
			return nil, err
		}
		return Not(a), nil
	case "call":
		return nil, fmt.Errorf("%s(…) not allowed here", e.Name)
	case "star":
		return nil, fmt.Errorf("* not allowed here")
	}
	return nil, fmt.Errorf("cannot resolve %q", e.Kind)
}

// ResolveAgg lowers a call node to the aggregate it names, its argument
// resolved against schema and its output column called name. It is the
// one place that decides what an aggregate call may be: a known function
// with exactly one argument, and * only under count.
func ResolveAgg(call *ExprTree, schema row.Schema, name string) (AggDef, error) {
	if call.Kind != "call" {
		return AggDef{}, fmt.Errorf("expected an aggregate call")
	}
	switch call.Name {
	case "count", "sum", "avg", "min", "max":
	default:
		return AggDef{}, fmt.Errorf("unknown aggregate %q", call.Name)
	}
	if len(call.Args) != 1 {
		return AggDef{}, fmt.Errorf("%s takes one argument, got %d", call.Name, len(call.Args))
	}
	def := AggDef{Func: call.Name, Name: name}
	if call.Args[0].Kind == "star" {
		if call.Name != "count" {
			return AggDef{}, fmt.Errorf("%s(*) is not supported", call.Name)
		}
		return def, nil
	}
	var err error
	def.Arg, err = bind(call.Args[0], schema)
	return def, err
}

// Package relop is the shared relational execution layer used by the
// Hive-style SQL engine and the Pig-style ETL engine in this repository.
// It provides a logical plan, a stage language that travels as an opaque
// processor payload, a stage processor registered with the Tez runtime,
// and two compilers: one that emits a single Tez DAG (stage chaining,
// broadcast edges, auto reduce parallelism), and one that emits a chain of
// MapReduce-shaped jobs with DFS materialisation between them — the
// baseline the paper's Figures 8–10 compare against.
package relop

import (
	"fmt"

	"tez/internal/row"
)

// Expr is an expression tree, evaluated a batch at a time by evalVec
// (vexpr.go). Comparison and logical operators yield Int(1)/Int(0); null
// propagates through arithmetic. It is plain exported data because it
// travels inside a StageSpec payload, and read-only once decoded: the
// tasks of a vertex that share a container share one decoded tree.
type Expr struct {
	// Kind: "col", "lit", "cmp", "and", "or", "not", "arith".
	Kind string
	// Col is the input column index for Kind "col".
	Col int
	// Lit is the literal for Kind "lit".
	Lit row.Value
	// Op: cmp: = != < <= > >= ; arith: + - * /
	Op   string
	Args []*Expr
}

// Expression constructors.
func Col(i int) *Expr          { return &Expr{Kind: "col", Col: i} }
func Lit(v row.Value) *Expr    { return &Expr{Kind: "lit", Lit: v} }
func LitInt(v int64) *Expr     { return Lit(row.Int(v)) }
func LitFloat(v float64) *Expr { return Lit(row.Float(v)) }
func LitString(v string) *Expr { return Lit(row.String(v)) }
func Cmp(op string, a, b *Expr) *Expr {
	return &Expr{Kind: "cmp", Op: op, Args: []*Expr{a, b}}
}
func Eq(a, b *Expr) *Expr { return Cmp("=", a, b) }
func And(args ...*Expr) *Expr {
	if len(args) == 1 {
		return args[0]
	}
	return &Expr{Kind: "and", Args: args}
}
func Or(args ...*Expr) *Expr { return &Expr{Kind: "or", Args: args} }
func Not(a *Expr) *Expr      { return &Expr{Kind: "not", Args: []*Expr{a}} }
func Arith(op string, a, b *Expr) *Expr {
	return &Expr{Kind: "arith", Op: op, Args: []*Expr{a, b}}
}

// exprKind is the kind e evaluates to over rows of schema s, as the
// schema declares its columns: comparisons and logic yield an int 0/1,
// arithmetic is int only for int ⊕ int other than division, and a null
// literal, a column out of range or an unknown node have no kind
// (KindNull). Null values do not change a kind.
func exprKind(e *Expr, s row.Schema) row.Kind {
	switch e.Kind {
	case "col":
		if e.Col >= 0 && e.Col < s.Width() {
			return s.Cols[e.Col].Kind
		}
	case "lit":
		return e.Lit.Kind
	case "cmp", "and", "or", "not":
		return row.KindInt
	case "arith":
		if len(e.Args) == 2 && e.Op != "/" &&
			exprKind(e.Args[0], s) == row.KindInt && exprKind(e.Args[1], s) == row.KindInt {
			return row.KindInt
		}
		return row.KindFloat
	}
	return row.KindNull
}

// validateExpr rejects the trees the kernels would index blindly: a nil
// node, a cmp or arith without exactly two operands, a not without
// exactly one. Unknown kinds and operators and out-of-range columns are
// not errors: they evaluate to null.
func validateExpr(e *Expr) error {
	if e == nil {
		return fmt.Errorf("relop: nil expression")
	}
	want := -1
	switch e.Kind {
	case "cmp", "arith":
		want = 2
	case "not":
		want = 1
	}
	if want >= 0 && len(e.Args) != want {
		return fmt.Errorf("relop: %s expression with %d operands, want %d", e.Kind, len(e.Args), want)
	}
	for _, a := range e.Args {
		if err := validateExpr(a); err != nil {
			return err
		}
	}
	return nil
}

// arithValues is the scalar arithmetic rule, applied per row by evalVec's
// boxed fallback for kind-mixed columns (vexpr.go; the typed kernels
// implement the same rule): int⊕int stays int except division, everything
// else coerces through AsFloat (strings coerce to 0), division by zero
// yields null.
func arithValues(op string, a, b row.Value) row.Value {
	if a.IsNull() || b.IsNull() {
		return row.Null()
	}
	if a.Kind == row.KindInt && b.Kind == row.KindInt && op != "/" {
		switch op {
		case "+":
			return row.Int(a.Int + b.Int)
		case "-":
			return row.Int(a.Int - b.Int)
		case "*":
			return row.Int(a.Int * b.Int)
		}
	}
	fa, fb := a.AsFloat(), b.AsFloat()
	switch op {
	case "+":
		return row.Float(fa + fb)
	case "-":
		return row.Float(fa - fb)
	case "*":
		return row.Float(fa * fb)
	case "/":
		if fb == 0 {
			return row.Null()
		}
		return row.Float(fa / fb)
	}
	return row.Null()
}

func (e *Expr) String() string {
	switch e.Kind {
	case "col":
		return fmt.Sprintf("$%d", e.Col)
	case "lit":
		return e.Lit.String()
	case "cmp", "arith":
		return fmt.Sprintf("(%s %s %s)", e.Args[0], e.Op, e.Args[1])
	case "and", "or":
		s := "(" + e.Args[0].String()
		for _, a := range e.Args[1:] {
			s += " " + e.Kind + " " + a.String()
		}
		return s + ")"
	case "not":
		return "not " + e.Args[0].String()
	}
	return "?"
}

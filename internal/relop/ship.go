package relop

import (
	"slices"

	"tez/internal/row"
)

// What a plan ships (DESIGN §13, "Shipping only what is read"): before
// lowering, the compiler counts each node's consumers and the columns of
// its output they read. A shuffle join's sides then ship only those
// columns, and an aggregate grouped by its join's key runs inside the join.

// readSet is the set of a node's output columns its consumers read; all
// means every column.
type readSet struct {
	all  bool
	cols map[int]bool
}

func (r *readSet) addAll() { r.all, r.cols = true, nil }

// has reports whether column c is read; a nil set reads everything.
func (r *readSet) has(c int) bool { return r == nil || r.all || r.cols[c] }

// every reports whether all columns are read.
func (r *readSet) every() bool { return r == nil || r.all }

func (r *readSet) add(c int) {
	if r.all {
		return
	}
	if r.cols == nil {
		r.cols = map[int]bool{}
	}
	r.cols[c] = true
}

// addSet adds what o reads; a nil o reads everything.
func (r *readSet) addSet(o *readSet) {
	if o.every() {
		r.addAll()
		return
	}
	for c := range o.cols {
		r.add(c)
	}
}

// addExprs adds every column the expressions reference.
func (r *readSet) addExprs(es ...*Expr) {
	for _, e := range es {
		if e.Kind == "col" {
			r.add(e.Col)
		}
		r.addExprs(e.Args...)
	}
}

// columns lists the read columns of a width-w row in ascending order, or
// nil when that is all of them.
func (r *readSet) columns(w int) []int {
	if r.all {
		return nil
	}
	var cols []int
	for c := 0; c < w; c++ {
		if r.cols[c] {
			cols = append(cols, c)
		}
	}
	if len(cols) == w {
		return nil
	}
	return cols
}

// sideReads splits what is read of join n's output into what the join
// reads of each side, its keys included.
func sideReads(n *Node, out *readSet) (l, r readSet) {
	if out.every() {
		l.addAll()
		r.addAll()
		return l, r
	}
	lw := n.Children[0].OutSchema.Width()
	for c := range out.cols {
		if c < lw {
			l.add(c)
		} else {
			r.add(c - lw)
		}
	}
	l.addExprs(n.JoinL...)
	r.addExprs(n.JoinR...)
	return l, r
}

// usage is the plan DAG seen from its consumers.
type usage struct {
	// consumers counts each node's parents; a pruning source also counts
	// the scan it prunes.
	consumers map[*Node]int
	// reads holds what the consumers of a node read of its output. A node
	// the analysis never saw (the sampler's plan copies) has none: read
	// everything.
	reads map[*Node]*readSet
}

// inputs lists the nodes n consumes.
func inputs(n *Node) []*Node {
	if n.Prune != nil {
		return append(slices.Clip(n.Children), n.Prune.SourceNode)
	}
	return n.Children
}

// analyzeUsage runs the required-columns pass: nodes are visited consumers
// first, and each adds what it reads of its inputs to theirs, so a node
// read by several consumers reads their union.
func analyzeUsage(roots []*Node) usage {
	u := usage{consumers: map[*Node]int{}, reads: map[*Node]*readSet{}}
	var order []*Node // inputs before consumers
	seen := map[*Node]bool{}
	var visit func(n *Node)
	visit = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, in := range inputs(n) {
			u.consumers[in]++
			visit(in)
		}
		order = append(order, n)
	}
	for _, r := range roots {
		visit(r)
	}
	for i := len(order) - 1; i >= 0; i-- {
		u.propagate(order[i])
	}
	return u
}

// propagate adds what n reads of each input, given what n's own
// consumers read of n.
func (u usage) propagate(n *Node) {
	out := u.reads[n]
	of := func(in *Node) *readSet {
		r := u.reads[in]
		if r == nil {
			r = &readSet{}
			u.reads[in] = r
		}
		return r
	}
	switch n.Op {
	case "scan":
	case "filter":
		in := of(n.Children[0])
		in.addSet(out)
		in.addExprs(n.Filter)
	case "project":
		in := of(n.Children[0])
		for j, e := range n.Exprs {
			if out.has(j) {
				in.addExprs(e)
			}
		}
	case "join":
		l, r := sideReads(n, out)
		of(n.Children[0]).addSet(&l)
		of(n.Children[1]).addSet(&r)
	case "agg":
		in := of(n.Children[0])
		in.addExprs(n.GroupBy...)
		for _, a := range n.Aggs {
			if a.Arg != nil {
				in.addExprs(a.Arg)
			}
		}
	default:
		// store, distinct, union, skewjoin and rangesort pass whole rows
		// on; so does a sort, whose ties are broken by the whole row's
		// bytes.
		for _, in := range n.Children {
			of(in).addAll()
		}
	}
	if n.Prune != nil {
		of(n.Prune.SourceNode).addExprs(n.Prune.KeyExpr)
	}
}

// shipped lists, per side of shuffle join n, the columns its rows ship:
// those read above the join and those its keys read, ascending. A side
// that ships every column gets nil.
func (u usage) shipped(n *Node) (left, right []int) {
	l, r := sideReads(n, u.reads[n])
	return l.columns(n.Children[0].OutSchema.Width()), r.columns(n.Children[1].OutSchema.Width())
}

// scanned lists the columns scan n decodes: what its consumers read and
// its pushed-down filter, ascending, or nil for every column. A scan that
// reads none still decodes column 0, because the stage spec's encoding
// does not tell an empty list from nil.
func (u usage) scanned(n *Node) []int {
	var r readSet
	r.addSet(u.reads[n])
	if n.Filter != nil {
		r.addExprs(n.Filter)
	}
	cols := r.columns(n.Table.Schema.Width())
	if !r.all && cols == nil && len(r.cols) == 0 {
		cols = []int{0}
	}
	return cols
}

// fusesWithJoin reports whether agg node n can run inside the shuffle
// join below it: the join has no other consumer, every GROUP BY
// expression is a bare column that is a bare-column key of its side, and
// every key position is named. Rows are then in one join group exactly
// when their key bytes are equal, and in one aggregate group exactly when
// theirs are, so the groups are the same.
func (u usage) fusesWithJoin(n *Node) bool {
	j := n.Children[0]
	if j.Op != "join" || j.Broadcast || u.consumers[j] != 1 {
		return false
	}
	lw := j.Children[0].OutSchema.Width()
	named := make([]bool, len(j.JoinL))
	for _, g := range n.GroupBy {
		if g.Kind != "col" {
			return false
		}
		keys, c := j.JoinL, g.Col
		if c >= lw {
			keys, c = j.JoinR, c-lw
		}
		found := false
		for i, k := range keys {
			if k.Kind == "col" && k.Col == c {
				named[i], found = true, true
			}
		}
		if !found {
			return false
		}
	}
	return !slices.Contains(named, false)
}

// substitute copies e with every column reference c replaced by at(c).
// Literals are shared: trees are read-only once built.
func substitute(e *Expr, at func(c int) *Expr) *Expr {
	if e.Kind == "col" {
		return at(e.Col)
	}
	if len(e.Args) == 0 {
		return e
	}
	cp := *e
	cp.Args = make([]*Expr, len(e.Args))
	for i, a := range e.Args {
		cp.Args[i] = substitute(a, at)
	}
	return &cp
}

// substituteAll applies substitute to each expression.
func substituteAll(es []*Expr, at func(c int) *Expr) []*Expr {
	out := make([]*Expr, len(es))
	for i, e := range es {
		out[i] = substitute(e, at)
	}
	return out
}

// nullLit stands in for a column nobody reads, or one out of range: both
// evaluate to null.
func nullLit() *Expr { return Lit(row.Null()) }

// within maps column c to its position in the ascending list cols, or to
// null when c is not in it.
func within(cols []int) func(c int) *Expr {
	return func(c int) *Expr {
		if i, ok := slices.BinarySearch(cols, c); ok {
			return Col(i)
		}
		return nullLit()
	}
}

// inline maps column c to exprs[c], or to null out of range: it composes
// an expression with the projection below it.
func inline(exprs []*Expr) func(c int) *Expr {
	return func(c int) *Expr {
		if c >= 0 && c < len(exprs) {
			return exprs[c]
		}
		return nullLit()
	}
}

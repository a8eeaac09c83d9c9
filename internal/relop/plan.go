package relop

import (
	"fmt"

	"tez/internal/row"
)

// Table is a catalogued DFS-resident dataset: rows stored as record files
// (empty keys, row-encoded values). Files lists the physical files; tables
// partitioned by a column keep one file per partition value so the
// dynamic-pruning initializer can skip irrelevant ones.
type Table struct {
	Name      string
	Schema    row.Schema
	Files     []string
	SizeBytes int64
	Rows      int64
	// PartitionCol, when >= 0, is the column each file is partitioned by;
	// PartitionVals[i] is file i's value (Hive-style partitioned table).
	PartitionCol  int
	PartitionVals []row.Value
}

// AggDef is one aggregate in an Agg node.
type AggDef struct {
	Func string // sum, count, min, max, avg
	Arg  *Expr  // ignored for count(*) (nil)
	Name string
}

// Node is a logical plan operator. Plans form DAGs: a node may be consumed
// by several parents (Pig SPLIT, shared sub-plans).
type Node struct {
	// Op: scan, filter, project, join, agg, sort, distinct, union, store.
	Op       string
	Children []*Node
	// OutSchema is the node's output schema.
	OutSchema row.Schema

	// scan
	Table *Table
	// When set, the Tez compiler attaches a pruning initializer fed by
	// InputInitializerEvents carrying join-key values from PruneFrom.
	Prune *PruneSpec

	// filter
	Filter *Expr

	// project
	Exprs []*Expr
	Names []string

	// join (children: left, right); equality keys.
	JoinL, JoinR []*Expr
	// Broadcast builds the right side into a hash table shipped over a
	// broadcast edge (Tez map join); the MR compiler rejects it.
	Broadcast bool

	// agg
	GroupBy []*Expr
	Aggs    []AggDef

	// sort
	SortKeys []*Expr
	SortDesc []bool
	Limit    int // 0 = unlimited (also used by op "limit" folded into sort)
	// rangesort / skewjoin: submitted partition count for the sampled
	// range partitioner.
	RangeParts int

	// store
	StorePath string
}

// PruneSpec connects a partitioned scan to the vertex producing its join
// key values (§3.5, dynamic partition pruning).
type PruneSpec struct {
	// SourceVertex is the stage whose tasks emit the key values (filled in
	// by the compiler from SourceNode).
	SourceNode *Node
	// KeyExpr evaluates the pruning value on the source node's rows.
	KeyExpr *Expr
}

// Plan builders. Each validates arity and computes the output schema.

// Scan reads a table.
func Scan(t *Table) *Node {
	return &Node{Op: "scan", Table: t, OutSchema: t.Schema}
}

// FilterNode applies a predicate.
func FilterNode(in *Node, pred *Expr) *Node {
	return &Node{Op: "filter", Children: []*Node{in}, Filter: pred, OutSchema: in.OutSchema}
}

// ProjectNode computes expressions with the given output names.
func ProjectNode(in *Node, exprs []*Expr, names []string, kinds []row.Kind) *Node {
	s := row.Schema{}
	for i, n := range names {
		k := row.KindString
		if kinds != nil {
			k = kinds[i]
		}
		s.Cols = append(s.Cols, row.Col{Name: n, Kind: k})
	}
	return &Node{Op: "project", Children: []*Node{in}, Exprs: exprs, Names: names, OutSchema: s}
}

// JoinNode is an inner equality join; the output schema is left ++ right.
func JoinNode(l, r *Node, keysL, keysR []*Expr, broadcast bool) *Node {
	return &Node{
		Op: "join", Children: []*Node{l, r},
		JoinL: keysL, JoinR: keysR, Broadcast: broadcast,
		OutSchema: l.OutSchema.Concat(r.OutSchema),
	}
}

// AggNode groups by the given expressions and computes aggregates; output
// is group columns then aggregate columns.
func AggNode(in *Node, groupBy []*Expr, groupNames []string, aggs []AggDef) *Node {
	s := row.Schema{}
	for _, n := range groupNames {
		s.Cols = append(s.Cols, row.Col{Name: n, Kind: row.KindString})
	}
	for _, a := range aggs {
		s.Cols = append(s.Cols, row.Col{Name: a.Name, Kind: row.KindFloat})
	}
	return &Node{Op: "agg", Children: []*Node{in}, GroupBy: groupBy, Aggs: aggs, OutSchema: s}
}

// SortNode orders rows (optionally truncating to limit).
func SortNode(in *Node, keys []*Expr, desc []bool, limit int) *Node {
	return &Node{Op: "sort", Children: []*Node{in}, SortKeys: keys, SortDesc: desc, Limit: limit, OutSchema: in.OutSchema}
}

// DistinctNode removes duplicate rows.
func DistinctNode(in *Node) *Node {
	return &Node{Op: "distinct", Children: []*Node{in}, OutSchema: in.OutSchema}
}

// UnionNode concatenates inputs of identical width.
func UnionNode(ins ...*Node) *Node {
	return &Node{Op: "union", Children: ins, OutSchema: ins[0].OutSchema}
}

// StoreNode writes rows to a DFS directory; it is a plan root.
func StoreNode(in *Node, path string) *Node {
	return &Node{Op: "store", Children: []*Node{in}, StorePath: path, OutSchema: in.OutSchema}
}

// Validate checks plan structure from the given roots.
func Validate(roots []*Node) error {
	seen := map[*Node]bool{}
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n == nil {
			return fmt.Errorf("relop: nil node")
		}
		if seen[n] {
			return nil
		}
		seen[n] = true
		switch n.Op {
		case "scan":
			if n.Table == nil {
				return fmt.Errorf("relop: scan without table")
			}
		case "filter":
			if n.Filter == nil {
				return fmt.Errorf("relop: filter without predicate")
			}
		case "join", "skewjoin":
			if len(n.Children) != 2 || len(n.JoinL) == 0 || len(n.JoinL) != len(n.JoinR) {
				return fmt.Errorf("relop: malformed join")
			}
		case "rangesort":
			if len(n.SortKeys) == 0 {
				return fmt.Errorf("relop: rangesort without keys")
			}
		case "store":
			if n.StorePath == "" {
				return fmt.Errorf("relop: store without path")
			}
		case "union":
			for _, c := range n.Children {
				if c.OutSchema.Width() != n.OutSchema.Width() {
					return fmt.Errorf("relop: union width mismatch")
				}
			}
		}
		// Every expression the compiled stages will evaluate (a scan's
		// pushed-down filter and a count(*) argument are optional).
		exprs := append([]*Expr{}, n.Exprs...)
		exprs = append(exprs, n.JoinL...)
		exprs = append(exprs, n.JoinR...)
		exprs = append(exprs, n.GroupBy...)
		exprs = append(exprs, n.SortKeys...)
		if n.Filter != nil {
			exprs = append(exprs, n.Filter)
		}
		for _, a := range n.Aggs {
			if a.Arg != nil {
				exprs = append(exprs, a.Arg)
			}
		}
		if n.Prune != nil {
			exprs = append(exprs, n.Prune.KeyExpr)
		}
		for _, e := range exprs {
			if err := validateExpr(e); err != nil {
				return fmt.Errorf("%w (in %s)", err, n.Op)
			}
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if r.Op != "store" {
			return fmt.Errorf("relop: plan root must be store, got %s", r.Op)
		}
		if err := walk(r); err != nil {
			return err
		}
	}
	return nil
}

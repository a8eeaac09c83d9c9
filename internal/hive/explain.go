package hive

import (
	"fmt"
	"strings"

	"tez/internal/relop"
)

// Explain renders the logical plan of a query and the Tez DAG it compiles
// to — the quickest way to see broadcast-join selection, predicate
// pushdown and dynamic-partition-pruning decisions.
func (e *Engine) Explain(sql string) (string, error) {
	roots, err := e.Plan(sql, "/explain/out", false)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("logical plan:\n")
	for _, r := range roots {
		explainNode(&b, r, 1)
	}
	d, err := relop.EmitDAGOnly(e.Exec, "explain", roots)
	if err != nil {
		return "", err
	}
	dagText, err := relop.ExplainDAG(d)
	if err != nil {
		return "", err
	}
	b.WriteString("tez dag:\n" + dagText)
	return b.String(), nil
}

func explainNode(b *strings.Builder, n *relop.Node, depth int) {
	indent := strings.Repeat("  ", depth)
	switch n.Op {
	case "scan":
		fmt.Fprintf(b, "%sscan %s (%d files", indent, n.Table.Name, len(n.Table.Files))
		if n.Prune != nil {
			b.WriteString(", dynamically pruned")
		}
		b.WriteString(")")
	case "filter":
		fmt.Fprintf(b, "%sfilter %s", indent, n.Filter)
	case "project":
		fmt.Fprintf(b, "%sproject %v", indent, n.Names)
	case "join":
		kind := "shuffle join"
		if n.Broadcast {
			kind = "broadcast (map) join"
		}
		fmt.Fprintf(b, "%s%s on %d key(s)", indent, kind, len(n.JoinL))
	case "agg":
		names := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			names[i] = a.Func
		}
		fmt.Fprintf(b, "%saggregate group=%d aggs=%v", indent, len(n.GroupBy), names)
	case "sort":
		fmt.Fprintf(b, "%ssort keys=%d limit=%d", indent, len(n.SortKeys), n.Limit)
	case "store":
		fmt.Fprintf(b, "%sstore %s", indent, n.StorePath)
	default:
		fmt.Fprintf(b, "%s%s", indent, n.Op)
	}
	b.WriteString("\n")
	for _, c := range n.Children {
		explainNode(b, c, depth+1)
	}
}

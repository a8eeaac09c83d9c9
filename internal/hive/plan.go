package hive

import (
	"fmt"
	"strings"

	"tez/internal/relop"
	"tez/internal/row"
)

// identRefs collects the table aliases an expression references.
func identRefs(e *relop.ExprTree, out map[string]bool) {
	if e == nil {
		return
	}
	if e.Kind == "ident" {
		if i := strings.IndexByte(e.Name, '.'); i > 0 {
			out[e.Name[:i]] = true
		} else {
			out[""] = true // unqualified: unknown table
		}
	}
	for _, a := range e.Args {
		identRefs(a, out)
	}
}

// splitConjuncts flattens a predicate into ANDed conjuncts.
func splitConjuncts(e *relop.ExprTree) []*relop.ExprTree {
	if e == nil {
		return nil
	}
	if e.Kind == "binop" && e.Op == "and" {
		return append(splitConjuncts(e.Args[0]), splitConjuncts(e.Args[1])...)
	}
	return []*relop.ExprTree{e}
}

func joinAst(conjuncts []*relop.ExprTree) *relop.ExprTree {
	if len(conjuncts) == 0 {
		return nil
	}
	out := conjuncts[0]
	for _, c := range conjuncts[1:] {
		out = &relop.ExprTree{Kind: "binop", Op: "and", Args: []*relop.ExprTree{out, c}}
	}
	return out
}

// hasAgg reports whether the expression contains a call: every call is an
// aggregate call, or relop.ResolveAgg refuses it.
func hasAgg(e *relop.ExprTree) bool {
	if e == nil {
		return false
	}
	if e.Kind == "call" {
		return true
	}
	for _, a := range e.Args {
		if hasAgg(a) {
			return true
		}
	}
	return false
}

// planContext tracks the state while lowering one statement.
type planContext struct {
	eng *Engine
	// forMR disables Tez-only physical choices.
	forMR bool
}

// plan lowers a parsed statement to a relop plan ending in a store.
func (pc *planContext) plan(st *selectStmt, outPath string) (*relop.Node, error) {
	eng := pc.eng

	// FROM: base scan plus left-deep joins.
	type scanInfo struct {
		node     *relop.Node // possibly filter-wrapped
		scanNode *relop.Node // the underlying scan (pruning target)
		alias    string
		table    *relop.Table
	}
	scans := map[string]*scanInfo{}
	mkScan := func(tr tableRef) (*scanInfo, error) {
		t, ok := eng.tables[tr.Name]
		if !ok {
			return nil, fmt.Errorf("unknown table %q", tr.Name)
		}
		n := relop.Scan(t)
		n.OutSchema = t.Schema.Qualify(tr.Alias)
		si := &scanInfo{node: n, scanNode: n, alias: tr.Alias, table: t}
		if scans[tr.Alias] != nil {
			return nil, fmt.Errorf("duplicate alias %q", tr.Alias)
		}
		scans[tr.Alias] = si
		return si, nil
	}
	base, err := mkScan(st.From)
	if err != nil {
		return nil, err
	}

	// WHERE: push single-table conjuncts into scans.
	aliasOf := func(e *relop.ExprTree) string {
		refs := map[string]bool{}
		identRefs(e, refs)
		if len(refs) == 1 {
			for a := range refs {
				return a
			}
		}
		return ""
	}
	var postJoin []*relop.ExprTree
	pushed := map[string][]*relop.ExprTree{}
	for _, c := range splitConjuncts(st.Where) {
		a := aliasOf(c)
		if a != "" && scans[a] == nil {
			// References an alias joined later; classify after scans exist
			// (we create all scans first below).
		}
		pushed[a] = append(pushed[a], c)
	}
	// Create join scans before classification completes.
	type joinInfo struct {
		si *scanInfo
		on *relop.ExprTree
	}
	var joins []joinInfo
	for _, jc := range st.Joins {
		si, err := mkScan(jc.Table)
		if err != nil {
			return nil, err
		}
		joins = append(joins, joinInfo{si: si, on: jc.On})
	}
	// Re-classify the unassigned conjuncts now that all aliases exist.
	for a, cs := range pushed {
		if a == "" || scans[a] == nil {
			postJoin = append(postJoin, cs...)
			continue
		}
		si := scans[a]
		pred, _, err := relop.Resolve(joinAst(cs), si.node.OutSchema)
		if err != nil {
			return nil, err
		}
		si.node = relop.FilterNode(si.node, pred)
	}

	// Left-deep joins.
	cur := base.node
	curFactWidth := base.table.Schema.Width()
	factScan := base
	for _, j := range joins {
		right := j.si
		// Split the ON condition into equality keys (left vs right) and
		// residual predicates.
		var lKeys, rKeys []*relop.Expr
		var residual []*relop.ExprTree
		for _, c := range splitConjuncts(j.on) {
			if c.Kind == "binop" && c.Op == "=" {
				lSchema, rSchema := cur.OutSchema, right.node.OutSchema
				if le, _, err := relop.Resolve(c.Args[0], lSchema); err == nil {
					if re, _, err := relop.Resolve(c.Args[1], rSchema); err == nil {
						lKeys = append(lKeys, le)
						rKeys = append(rKeys, re)
						continue
					}
				}
				// Try swapped sides.
				if le, _, err := relop.Resolve(c.Args[1], lSchema); err == nil {
					if re, _, err := relop.Resolve(c.Args[0], rSchema); err == nil {
						lKeys = append(lKeys, le)
						rKeys = append(rKeys, re)
						continue
					}
				}
			}
			residual = append(residual, c)
		}
		if len(lKeys) == 0 {
			return nil, fmt.Errorf("join with %s has no equality condition", right.alias)
		}
		broadcast := !pc.forMR && right.table.SizeBytes > 0 &&
			right.table.SizeBytes <= eng.BroadcastThreshold

		// Dynamic partition pruning: fact (leftmost, partitioned) joined
		// on its partition column with a filtered dimension.
		if !pc.forMR && eng.EnablePruning && factScan.table.PartitionVals != nil &&
			factScan.scanNode.Prune == nil && right.node.Op == "filter" {
			if colRef, ok := singleCol(lKeys[0]); ok && colRef < curFactWidth &&
				colRef == factScan.table.PartitionCol {
				factScan.scanNode.Prune = &relop.PruneSpec{
					SourceNode: right.node,
					KeyExpr:    rKeys[0],
				}
			}
		}

		cur = relop.JoinNode(cur, right.node, lKeys, rKeys, broadcast)
		for _, c := range residual {
			pred, _, err := relop.Resolve(c, cur.OutSchema)
			if err != nil {
				return nil, err
			}
			cur = relop.FilterNode(cur, pred)
		}
	}

	// Residual WHERE conjuncts.
	if len(postJoin) > 0 {
		pred, _, err := relop.Resolve(joinAst(postJoin), cur.OutSchema)
		if err != nil {
			return nil, err
		}
		cur = relop.FilterNode(cur, pred)
	}

	// SELECT / GROUP BY.
	anyAgg := len(st.GroupBy) > 0
	for _, it := range st.Select {
		if hasAgg(it.Expr) {
			anyAgg = true
		}
	}
	var outNames []string
	if anyAgg {
		cur, outNames, err = pc.planAggregate(st, cur)
		if err != nil {
			return nil, err
		}
		if st.Having != nil {
			// HAVING references select-output names (group keys, agg
			// aliases); resolve against the projected schema.
			pred, _, err := relop.Resolve(st.Having, cur.OutSchema)
			if err != nil {
				return nil, err
			}
			cur = relop.FilterNode(cur, pred)
		}
	} else {
		if st.Having != nil {
			return nil, fmt.Errorf("HAVING without aggregation")
		}
		var exprs []*relop.Expr
		var kinds []row.Kind
		for i, it := range st.Select {
			if it.Expr.Kind == "star" {
				for c := 0; c < cur.OutSchema.Width(); c++ {
					exprs = append(exprs, relop.Col(c))
					outNames = append(outNames, cur.OutSchema.Cols[c].Name)
					kinds = append(kinds, cur.OutSchema.Cols[c].Kind)
				}
				continue
			}
			e, k, err := relop.Resolve(it.Expr, cur.OutSchema)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, e)
			outNames = append(outNames, selectName(it, i))
			kinds = append(kinds, k)
		}
		cur = relop.ProjectNode(cur, exprs, outNames, kinds)
	}

	// ORDER BY / LIMIT.
	if len(st.OrderBy) > 0 {
		var keys []*relop.Expr
		var desc []bool
		for _, oi := range st.OrderBy {
			idx, err := resolveOrderItem(oi.Expr, outNames, st.Select)
			if err != nil {
				return nil, err
			}
			keys = append(keys, relop.Col(idx))
			desc = append(desc, oi.Desc)
		}
		cur = relop.SortNode(cur, keys, desc, st.Limit)
	} else if st.Limit > 0 {
		cur = relop.SortNode(cur, []*relop.Expr{relop.LitInt(0)}, []bool{false}, st.Limit)
	}

	return relop.StoreNode(cur, outPath), nil
}

// planAggregate lowers GROUP BY + aggregate select lists.
func (pc *planContext) planAggregate(st *selectStmt, cur *relop.Node) (*relop.Node, []string, error) {
	// Group expressions (may also appear in the select list).
	var groupExprs []*relop.Expr
	var groupNames []string
	groupPos := map[string]int{} // rendered ast -> position
	for _, g := range st.GroupBy {
		e, _, err := relop.Resolve(g, cur.OutSchema)
		if err != nil {
			return nil, nil, err
		}
		groupPos[astKey(g)] = len(groupExprs)
		groupNames = append(groupNames, exprName(g))
		groupExprs = append(groupExprs, e)
	}
	// Aggregates from the select list.
	var aggs []relop.AggDef
	type outCol struct {
		fromGroup int // >=0: group column
		fromAgg   int // >=0: aggregate column
	}
	var outs []outCol
	var outNames []string
	for i, it := range st.Select {
		e := it.Expr
		if hasAgg(e) {
			if e.Kind != "call" {
				return nil, nil, fmt.Errorf("composite aggregate expressions unsupported")
			}
			name := selectName(it, i)
			def, err := relop.ResolveAgg(e, cur.OutSchema, name)
			if err != nil {
				return nil, nil, err
			}
			aggs = append(aggs, def)
			outs = append(outs, outCol{fromGroup: -1, fromAgg: len(aggs) - 1})
			outNames = append(outNames, name)
			continue
		}
		pos, ok := groupPos[astKey(e)]
		if !ok {
			return nil, nil, fmt.Errorf("select item %d is neither grouped nor aggregated", i)
		}
		outs = append(outs, outCol{fromGroup: pos, fromAgg: -1})
		outNames = append(outNames, selectName(it, i))
	}
	agg := relop.AggNode(cur, groupExprs, groupNames, aggs)
	// Project to select order.
	gw := len(groupExprs)
	var exprs []*relop.Expr
	var kinds []row.Kind
	for _, oc := range outs {
		if oc.fromGroup >= 0 {
			exprs = append(exprs, relop.Col(oc.fromGroup))
			kinds = append(kinds, row.KindString)
		} else {
			exprs = append(exprs, relop.Col(gw+oc.fromAgg))
			kinds = append(kinds, row.KindFloat)
		}
	}
	return relop.ProjectNode(agg, exprs, outNames, kinds), outNames, nil
}

// resolveOrderItem finds the select-output column an ORDER BY item names.
func resolveOrderItem(e *relop.ExprTree, outNames []string, items []selectItem) (int, error) {
	if e.Kind == "ident" {
		for i, n := range outNames {
			if strings.EqualFold(n, e.Name) || strings.HasSuffix(n, "."+e.Name) {
				return i, nil
			}
		}
	}
	key := astKey(e)
	for i, it := range items {
		if astKey(it.Expr) == key {
			return i, nil
		}
	}
	return 0, fmt.Errorf("ORDER BY item must name a select column")
}

func selectName(it selectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	return exprNameIdx(it.Expr, i)
}

func exprName(e *relop.ExprTree) string { return exprNameIdx(e, 0) }

func exprNameIdx(e *relop.ExprTree, i int) string {
	if e.Kind == "ident" {
		return e.Name
	}
	if e.Kind == "call" {
		return fmt.Sprintf("%s_%d", e.Name, i)
	}
	return fmt.Sprintf("expr_%d", i)
}

// astKey renders an AST expression canonically for equality checks.
func astKey(e *relop.ExprTree) string {
	if e == nil {
		return ""
	}
	s := e.Kind + ":" + e.Name + ":" + e.Op + ":" + e.Str +
		fmt.Sprintf(":%d:%g", e.Int, e.Float)
	for _, a := range e.Args {
		s += "(" + astKey(a) + ")"
	}
	return s
}

// singleCol unwraps a bare column reference.
func singleCol(e *relop.Expr) (int, bool) {
	if e.Kind == "col" {
		return e.Col, true
	}
	return 0, false
}

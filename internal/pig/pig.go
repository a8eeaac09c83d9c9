// Package pig is the ETL-scripting engine of §5.3 in miniature: a
// procedural dataflow builder (LOAD / FILTER / FOREACH / GROUP / JOIN /
// SKEW JOIN / ORDER BY / DISTINCT / UNION / SPLIT / STORE) whose scripts
// form arbitrary DAGs with multiple outputs. On the Tez backend a whole
// script runs as one DAG — including the sample→histogram→range-partition
// sub-graphs for ORDER BY and skewed joins; on the MapReduce backend it
// degrades to the pre-Tez chain of jobs with DFS materialisation.
package pig

import (
	"fmt"

	"tez/internal/am"
	"tez/internal/platform"
	"tez/internal/relop"
	"tez/internal/row"
)

// Script is a dataflow under construction.
type Script struct {
	Name   string
	Exec   relop.Config
	stores []*relop.Node
}

// NewScript starts an empty script.
func NewScript(name string) *Script { return &Script{Name: name} }

// Dataset is one relation in the script.
type Dataset struct {
	s    *Script
	node *relop.Node
}

// Schema returns the dataset's schema.
func (d *Dataset) Schema() row.Schema { return d.node.OutSchema }

// Col resolves a column reference by name.
func (d *Dataset) Col(name string) *relop.Expr {
	idx := d.node.OutSchema.Index(name)
	if idx < 0 {
		panic(fmt.Sprintf("pig: unknown column %q in %v", name, d.node.OutSchema))
	}
	return relop.Col(idx)
}

// Load reads a catalogued table.
func (s *Script) Load(t *relop.Table) *Dataset {
	return &Dataset{s: s, node: relop.Scan(t)}
}

// Filter keeps rows matching pred.
func (d *Dataset) Filter(pred *relop.Expr) *Dataset {
	return &Dataset{s: d.s, node: relop.FilterNode(d.node, pred)}
}

// ForEach projects expressions (GENERATE).
func (d *Dataset) ForEach(exprs []*relop.Expr, names []string, kinds []row.Kind) *Dataset {
	return &Dataset{s: d.s, node: relop.ProjectNode(d.node, exprs, names, kinds)}
}

// GroupBy groups and aggregates.
func (d *Dataset) GroupBy(keys []*relop.Expr, keyNames []string, aggs []relop.AggDef) *Dataset {
	return &Dataset{s: d.s, node: relop.AggNode(d.node, keys, keyNames, aggs)}
}

// Join is a hash-partitioned inner equality join.
func (d *Dataset) Join(o *Dataset, myKeys, otherKeys []*relop.Expr) *Dataset {
	return &Dataset{s: d.s, node: relop.JoinNode(d.node, o.node, myKeys, otherKeys, false)}
}

// SkewJoin joins with sampled range partitioning: a histogram vertex
// estimates the (skewed) key distribution at runtime and a custom vertex
// manager re-partitions both sides with balanced ranges (§5.3).
func (d *Dataset) SkewJoin(o *Dataset, myKeys, otherKeys []*relop.Expr, partitions int) *Dataset {
	return &Dataset{s: d.s, node: relop.SkewJoinNode(d.node, o.node, myKeys, otherKeys, partitions)}
}

// OrderBy globally orders with sample-based range partitioning on Tez
// (single reducer on MR).
func (d *Dataset) OrderBy(keys []*relop.Expr, desc []bool, limit, partitions int) *Dataset {
	return &Dataset{s: d.s, node: relop.RangeSortNode(d.node, keys, desc, limit, partitions)}
}

// Distinct removes duplicates.
func (d *Dataset) Distinct() *Dataset {
	return &Dataset{s: d.s, node: relop.DistinctNode(d.node)}
}

// Union concatenates same-width datasets.
func (d *Dataset) Union(others ...*Dataset) *Dataset {
	nodes := []*relop.Node{d.node}
	for _, o := range others {
		nodes = append(nodes, o.node)
	}
	return &Dataset{s: d.s, node: relop.UnionNode(nodes...)}
}

// Split returns one filtered branch per predicate (Pig SPLIT): all
// branches share the single upstream computation in the Tez DAG.
func (d *Dataset) Split(preds ...*relop.Expr) []*Dataset {
	out := make([]*Dataset, len(preds))
	for i, p := range preds {
		out[i] = d.Filter(p)
	}
	return out
}

// Store writes the dataset to a DFS directory (scripts may store many
// relations — the multi-output DAGs of §5.3).
func (s *Script) Store(d *Dataset, path string) {
	s.stores = append(s.stores, relop.StoreNode(d.node, path))
}

// Roots returns the plan roots (for inspection).
func (s *Script) Roots() []*relop.Node { return s.stores }

// Explain renders the compiled Tez DAG of the script plus what each
// stage vertex executes (its group op and emits).
func (s *Script) Explain() (string, error) {
	if len(s.stores) == 0 {
		return "", fmt.Errorf("pig: script %s stores nothing", s.Name)
	}
	d, err := relop.EmitDAGOnly(s.Exec, s.Name, s.stores)
	if err != nil {
		return "", err
	}
	dagText, err := relop.ExplainDAG(d)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("tez dag %s:\n%s", d.Name, dagText), nil
}

// RunTez executes the whole script as one Tez DAG in the session.
func (s *Script) RunTez(sess *am.Session) (am.DAGResult, error) {
	if len(s.stores) == 0 {
		return am.DAGResult{}, fmt.Errorf("pig: script %s stores nothing", s.Name)
	}
	return relop.RunTez(sess, s.Exec, s.Name, s.stores)
}

// RunMR executes the script as a chain of MapReduce-shaped jobs.
func (s *Script) RunMR(plat *platform.Platform, amCfg am.Config) (relop.MRStats, error) {
	if len(s.stores) == 0 {
		return relop.MRStats{}, fmt.Errorf("pig: script %s stores nothing", s.Name)
	}
	return relop.RunMR(plat, amCfg, s.Exec, s.Name, s.stores)
}

package relop

import (
	"fmt"
	"sort"
	"strings"

	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/plugin"
)

// ExplainDAG renders a compiled DAG: one line per vertex in topological
// order (task count, sources — marking a dynamically pruned one — and
// sinks), one per edge with its movement — "(hash)" after a
// hash-partitioned, unsorted one — then ExplainStages' section.
func ExplainDAG(d *dag.DAG) (string, error) {
	order, err := d.TopoOrder()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, name := range order {
		v := d.Vertex(name)
		par := "runtime"
		if v.Parallelism > 0 {
			par = fmt.Sprintf("%d", v.Parallelism)
		}
		fmt.Fprintf(&b, "  vertex %-24s tasks=%s", name, par)
		if len(v.Sources) > 0 {
			fmt.Fprintf(&b, " sources=%d", len(v.Sources))
			for _, s := range v.Sources {
				if s.Initializer.Name == PruneInitializerName {
					b.WriteString(" [dynamic partition pruning]")
				}
			}
		}
		if len(v.Sinks) > 0 {
			fmt.Fprintf(&b, " sinks=%d", len(v.Sinks))
		}
		b.WriteString("\n")
	}
	for _, ed := range d.Edges {
		fmt.Fprintf(&b, "  edge   %-24s -> %-20s %s", ed.From, ed.To, ed.Property.Movement)
		if ed.Property.Output.Name == library.UnorderedPartitionedOutputName {
			b.WriteString(" (hash)")
		}
		b.WriteString("\n")
	}
	if vs := ExplainStages(d); vs != "" {
		b.WriteString("stages:\n")
		for _, line := range strings.Split(strings.TrimRight(vs, "\n"), "\n") {
			b.WriteString("  " + line + "\n")
		}
	}
	return b.String(), nil
}

// ExplainStages renders what each stage vertex of a compiled DAG
// executes: one line for its group op (a join that aggregates its product
// shows the aggregate) and one per emit (kind, target, number of pipeline
// ops; for a shuffle emit the columns it ships when its pipeline ends in a
// projection, and a producer-side limit).
func ExplainStages(d *dag.DAG) string {
	var sb strings.Builder
	verts := append([]*dag.Vertex{}, d.Vertices...)
	sort.Slice(verts, func(i, j int) bool { return verts[i].Name < verts[j].Name })
	for _, v := range verts {
		if v.Processor.Name != StageProcessorName {
			continue
		}
		var spec StageSpec
		if err := plugin.Decode(v.Processor.Payload, &spec); err != nil {
			fmt.Fprintf(&sb, "%s: <undecodable stage spec: %v>\n", v.Name, err)
			continue
		}
		fmt.Fprintf(&sb, "%s:\n", v.Name)
		if g := spec.Group; g != nil {
			fmt.Fprintf(&sb, "  group %s", g.Kind)
			if g.AggInput != nil {
				funcs := make([]string, len(g.Aggs))
				for i, a := range g.Aggs {
					funcs[i] = a.Func
				}
				fmt.Fprintf(&sb, " -> agg group=%d aggs=%v", g.GroupWidth, funcs)
			}
			sb.WriteString("\n")
		}
		for _, es := range spec.Emits {
			fmt.Fprintf(&sb, "  emit %s -> %s (%d ops)", es.Kind, es.Output, len(es.Pipe))
			if n := len(es.Pipe); es.Kind == EmitShuffle && n > 0 && es.Pipe[n-1].Kind == "project" {
				fmt.Fprintf(&sb, " cols=%d", len(es.Pipe[n-1].Project))
			}
			if es.Limit > 0 {
				fmt.Fprintf(&sb, " limit=%d", es.Limit)
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

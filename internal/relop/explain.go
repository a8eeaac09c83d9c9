package relop

import (
	"fmt"
	"sort"
	"strings"

	"tez/internal/dag"
	"tez/internal/plugin"
)

// ExplainStages renders what each stage vertex of a compiled DAG
// executes: one line for its group op and one per emit (kind, target,
// number of pipeline ops).
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
			fmt.Fprintf(&sb, "  group %s\n", g.Kind)
		}
		for _, es := range spec.Emits {
			fmt.Fprintf(&sb, "  emit %s -> %s (%d ops)\n", es.Kind, es.Output, len(es.Pipe))
		}
	}
	return sb.String()
}

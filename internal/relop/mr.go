package relop

import (
	"fmt"

	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/plugin"
)

// The MapReduce-shaped backend: the same plan is lowered to a chain of
// 2-level jobs (map vertices + one reduce vertex), every job boundary
// materialised through the DFS, exactly as Hive/Pig executed before their
// Tez rewrite (§5.2–5.3). Tez-only features (broadcast joins, dynamic
// partition pruning, runtime re-parallelism) are unavailable here; shared
// scans are re-executed per job, as MR forces.

// MRJob is one compiled job of the chain.
type MRJob struct {
	Name string
	DAG  *dag.DAG
}

// CompileMR lowers the plan roots to an ordered job chain. tempRunID
// namespaces intermediate data; call CleanupMR afterwards.
func CompileMR(cfg Config, name string, roots []*Node) ([]MRJob, string, error) {
	cfg = cfg.withDefaults()
	c := NewCompiler(cfg)
	c.forMR = true
	if err := c.compileRoots(roots); err != nil {
		return nil, "", err
	}
	tempRoot := fmt.Sprintf("%s/%s", cfg.TempRoot, name)

	// Which grouped stages feed other grouped stages (need temp output)?
	consumers := map[*bStage][]*bStage{} // producer -> grouped consumers
	for _, st := range c.stages {
		for _, e := range st.inEdges {
			consumers[e.from] = append(consumers[e.from], st)
		}
	}
	tempPath := func(st *bStage) string { return fmt.Sprintf("%s/%s", tempRoot, st.name) }

	var jobs []MRJob
	seq := 0

	// mapVertexFor builds the map-side vertex spec feeding consumer G from
	// producer P within one job.
	mapVertexFor := func(d *dag.DAG, p *bStage, g *bStage) (*dag.Vertex, error) {
		spec := StageSpec{}
		var sources []dag.DataSource
		if !p.grouped {
			// Original map stage: its sources plus only the emits to G.
			sources = p.sources
			for _, in := range p.spec.Inputs {
				if in.Mode == InTable {
					spec.Inputs = append(spec.Inputs, in)
				} else {
					return nil, fmt.Errorf("relop: MR map stage %s has non-source input %s", p.name, in.Name)
				}
			}
			for _, em := range p.spec.Emits {
				if em.Output == g.name && em.Kind == EmitShuffle {
					spec.Emits = append(spec.Emits, em)
				}
			}
		} else {
			// Re-read the producer's materialised output. The committed
			// part files are only known at run time and the split
			// initializer takes exact paths, so the source's own
			// initializer is given the temp DIRECTORY and lists it then.
			src := library.DFSSource("src", nil, 0)
			src.Initializer = plugin.Desc(mrTempInitializerName, mrTempInitializerConfig{
				Dir:              tempPath(p),
				DesiredSplitSize: cfg.SplitSize,
			})
			sources = []dag.DataSource{src}
			spec.Inputs = []StageInput{{Name: "src", Mode: InSource}}
			for _, em := range p.spec.Emits {
				if em.Output == g.name && em.Kind == EmitShuffle {
					em.Input = "src"
					spec.Emits = append(spec.Emits, em)
				}
			}
		}
		v := d.AddVertex(p.name, plugin.Desc(StageProcessorName, spec), -1)
		v.Sources = sources
		return v, nil
	}

	for _, g := range c.stages {
		if !g.grouped {
			continue
		}
		seq++
		d := dag.New(fmt.Sprintf("%s_job%02d_%s", name, seq, g.name))
		rspec := StageSpec{Group: g.spec.Group}
		rv := d.AddVertex(g.name, plugin.Descriptor{}, cfg.DefaultPartitions) // descriptor set below
		for _, e := range g.inEdges {
			mv, err := mapVertexFor(d, e.from, g)
			if err != nil {
				return nil, "", err
			}
			rspec.Inputs = append(rspec.Inputs, StageInput{Name: e.from.name, Mode: InGrouped})
			d.Connect(mv, rv, library.OrderedEdge(library.OrderedPartitionedConfig{}))
		}
		if g.grouped && g.spec.Group.Kind == "sort" {
			rv.Parallelism = sortParallelism
		}
		// Final sinks stay; edges to other grouped stages become a temp
		// materialisation.
		rv.Sinks = g.sinks
		for _, em := range g.spec.Emits {
			if em.Kind == EmitSink {
				rspec.Emits = append(rspec.Emits, em)
			}
		}
		if len(consumers[g]) > 0 {
			sinkName := "mr_temp"
			rv.Sinks = append(rv.Sinks, library.DFSSink(sinkName, tempPath(g)))
			rspec.Emits = append(rspec.Emits, EmitSpec{Input: "", Output: sinkName, Kind: EmitSink, Tag: -1})
		}
		rv.Processor = plugin.Desc(StageProcessorName, rspec)
		if err := d.Validate(); err != nil {
			return nil, "", err
		}
		jobs = append(jobs, MRJob{Name: d.Name, DAG: d})
	}

	// Map-only jobs: map stages with direct sinks.
	for _, m := range c.stages {
		if m.grouped || len(m.sinks) == 0 {
			continue
		}
		seq++
		d := dag.New(fmt.Sprintf("%s_job%02d_%s", name, seq, m.name))
		spec := StageSpec{}
		for _, in := range m.spec.Inputs {
			if in.Mode == InTable {
				spec.Inputs = append(spec.Inputs, in)
			}
		}
		for _, em := range m.spec.Emits {
			if em.Kind == EmitSink {
				spec.Emits = append(spec.Emits, em)
			}
		}
		v := d.AddVertex(m.name, plugin.Desc(StageProcessorName, spec), -1)
		v.Sources = m.sources
		v.Sinks = m.sinks
		if err := d.Validate(); err != nil {
			return nil, "", err
		}
		jobs = append(jobs, MRJob{Name: d.Name, DAG: d})
	}
	return jobs, tempRoot, nil
}

// ordering note: jobs were appended grouped-stages-first in stage creation
// order, which is a valid topological order because compile() creates
// producers before consumers.

package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"tez/internal/am"
	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/timeline"
)

// Job describes one BSP computation.
type Job struct {
	// Name namespaces the job's DFS work area, registry keys, DAG names
	// and timeline spans.
	Name string
	// Program is a RegisterProgram name.
	Program string
	// ProgramConfig, when non-nil, is gob-encoded and handed to the
	// program's Configure (driver-side and in every task).
	ProgramConfig any
	// Graph is the input topology.
	Graph *Graph
	// Partitions is the graph partition count == the compute vertex's
	// parallelism (default 4). The inbox vertex starts at the same width
	// and is auto-shrunk per superstep by the ShuffleVertexManager from
	// observed message volume.
	Partitions int
	// MaxSupersteps bounds the loop (default 50).
	MaxSupersteps int
	// WorkDir is the DFS work area (default "/graph/<name>").
	WorkDir string
	// KeepWork leaves the work area on the DFS after the run.
	KeepWork bool
	// DisableRegistryCache makes every superstep cold-load state from the
	// DFS (the ablation knob of the graph bench).
	DisableRegistryCache bool
	// Timeline, when set, receives one GraphSuperstep span per superstep.
	Timeline *timeline.Journal
}

// SuperstepStat summarises one executed superstep.
type SuperstepStat struct {
	Superstep int
	// Active vertices computed; Halted vertices at superstep end.
	Active, Halted int64
	// Sent messages (pre-combine); Received at the inbox (post map-side
	// combine); Delivered into the next superstep's inbox files (post
	// inbox fold). Sent-Delivered is the total combined away.
	Sent, Received, Delivered int64
	// RegistryHits / ColdLoads count how compute tasks acquired their
	// partition snapshot; StateLoad is the cold loads' summed wall-clock.
	RegistryHits, ColdLoads int64
	StateLoad               time.Duration
	// InboxTasks is the inbox vertex's auto-chosen parallelism.
	InboxTasks int
	// Wall is the superstep DAG's wall-clock.
	Wall time.Duration
}

// Result is a finished computation.
type Result struct {
	// Values maps every vertex id to its final value.
	Values map[int64]float64
	// Supersteps executed (== len(Stats); the loop schedules no empty
	// trailing superstep).
	Supersteps int
	// Converged is true when the loop ended by halt votes or the
	// program's Converged predicate rather than MaxSupersteps.
	Converged bool
	// Aggregates are the final superstep's folded globals.
	Aggregates map[string]float64
	Stats      []SuperstepStat
}

// CanonicalBytes renders the final values as a deterministic byte string
// (ids ascending, IEEE-754 bits verbatim) — the unit of comparison for
// the chaos determinism suite.
func (r *Result) CanonicalBytes() []byte {
	ids := make([]int64, 0, len(r.Values))
	for id := range r.Values {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]byte, 0, 16*len(ids))
	var b [16]byte
	for _, id := range ids {
		binary.BigEndian.PutUint64(b[:8], uint64(id))
		binary.BigEndian.PutUint64(b[8:], math.Float64bits(r.Values[id]))
		out = append(out, b[:]...)
	}
	return out
}

func (j *Job) withDefaults() (Job, error) {
	job := *j
	if job.Name == "" {
		return job, fmt.Errorf("graph: job without name")
	}
	if job.Graph == nil || job.Graph.NumVertices() == 0 {
		return job, fmt.Errorf("graph: job %s without graph", job.Name)
	}
	if job.Program == "" {
		return job, fmt.Errorf("graph: job %s without program", job.Name)
	}
	if job.Partitions <= 0 {
		job.Partitions = 4
	}
	if job.MaxSupersteps <= 0 {
		job.MaxSupersteps = 50
	}
	if job.WorkDir == "" {
		job.WorkDir = "/graph/" + job.Name
	}
	return job, nil
}

// Run executes the job in the given session: each superstep compiles to a
// two-vertex DAG (compute → inbox) submitted through Session.RunLoop, so
// consecutive supersteps reuse the session's containers and each
// container's ObjectRegistry carries the partition snapshots forward. The
// loop stops as soon as the halt protocol fires — every vertex halted and
// nothing sent, or the program's Converged predicate — without building
// another DAG.
func Run(sess *am.Session, plat *platform.Platform, j Job) (*Result, error) {
	job, err := j.withDefaults()
	if err != nil {
		return nil, err
	}
	var progCfg []byte
	if job.ProgramConfig != nil {
		progCfg = plugin.MustEncode(job.ProgramConfig)
	}
	// The driver-side program instance answers Combiner/Aggregators/
	// Converged; per-vertex Compute runs only inside tasks.
	prog, err := newProgram(job.Program, progCfg)
	if err != nil {
		return nil, err
	}
	specs := aggSpecs(prog)
	kinds := map[string]AggKind{}
	for _, s := range specs {
		kinds[s.Name] = s.Kind
	}
	info := GraphInfo{NumVertices: job.Graph.NumVertices(), NumEdges: job.Graph.NumEdges()}

	fs := plat.FS
	fs.DeletePrefix(job.WorkDir + "/")
	if !job.KeepWork {
		defer fs.DeletePrefix(job.WorkDir + "/")
	}
	if err := writeInitialState(fs, stateDir(job.WorkDir, 0), job.Graph, prog, job.Partitions); err != nil {
		return nil, err
	}

	res := &Result{}
	agg := map[string]float64{}
	prevNodes := make([]string, job.Partitions)
	converged := false
	iters, err := sess.RunLoop(job.MaxSupersteps,
		func(it int) (*dag.DAG, error) {
			inbox := inboxDir(job.WorkDir, it)
			if !fs.Exists(library.FinalPath(inbox, 0)) {
				inbox = "" // superstep 0, or upstream delivered nothing
			}
			return superstepDAG(&job, progCfg, prog, specs, info, it, inbox, agg, prevNodes), nil
		},
		func(it int, dres am.DAGResult) (bool, error) {
			folded, err := readFloatRecords(fs, aggDir(job.WorkDir, it), kinds)
			if err != nil {
				return false, err
			}
			mstats, err := readFloatRecords(fs, mstatsDir(job.WorkDir, it), nil)
			if err != nil {
				return false, err
			}
			agg, prevNodes = splitLocAgg(folded, job.Partitions)
			folded = agg
			stat := SuperstepStat{
				Superstep:    it,
				Active:       int64(folded[AggActive]),
				Halted:       int64(folded[AggHalted]),
				Sent:         int64(folded[AggSent]),
				Received:     int64(mstats["graph.received"]),
				Delivered:    int64(mstats["graph.emitted"]),
				RegistryHits: dres.Counters.Get(ctrRegistryHits),
				ColdLoads:    dres.Counters.Get(ctrColdLoads),
				StateLoad:    time.Duration(dres.Counters.Get(ctrLoadNS)),
				InboxTasks:   len(fs.List(inboxDir(job.WorkDir, it+1) + "/part-")),
				Wall:         dres.Duration,
			}
			res.Stats = append(res.Stats, stat)
			job.Timeline.Record(timeline.Event{
				Type: timeline.GraphSuperstep,
				DAG:  job.Name,
				Dur:  stat.Wall,
				Val:  stat.Active,
				Info: fmt.Sprintf("superstep=%d active=%d sent=%d combined=%d",
					it, stat.Active, stat.Sent, stat.Sent-stat.Delivered),
			})
			// Retire the consumed generation; the frontier (state and inbox
			// of superstep it+1) stays.
			fs.DeletePrefix(stateDir(job.WorkDir, it) + "/")
			fs.DeletePrefix(inboxDir(job.WorkDir, it) + "/")
			fs.DeletePrefix(aggDir(job.WorkDir, it) + "/")
			fs.DeletePrefix(mstatsDir(job.WorkDir, it) + "/")

			// Halt protocol: all votes in and no messages in flight ends the
			// computation; a Converger program can end it sooner.
			if stat.Sent == 0 && stat.Halted == info.NumVertices {
				converged = true
				return true, nil
			}
			if c, ok := prog.(Converger); ok && c.Converged(it, agg) {
				converged = true
				return true, nil
			}
			return false, nil
		})
	if err != nil {
		return nil, err
	}

	values, err := readValues(fs, stateDir(job.WorkDir, iters))
	if err != nil {
		return nil, err
	}
	res.Values = values
	res.Supersteps = iters
	res.Converged = converged
	res.Aggregates = agg
	return res, nil
}

// superstepDAG compiles superstep it onto a two-vertex DAG:
//
//	state/s<it> ──initializer──▶ [compute ×P] ──scatter-gather──▶ [inbox ×auto]
//	                               │    │  (combiner on the edge)      │    │
//	                           snapshot agg                           out  mstats
//	                          state/s<it+1>                     inbox/s<it+1>
func superstepDAG(job *Job, progCfg []byte, prog Program, specs []AggSpec,
	info GraphInfo, it int, inbox string, agg map[string]float64, prevNodes []string) *dag.DAG {
	work := job.WorkDir
	d := dag.New(fmt.Sprintf("%s-s%03d", job.Name, it))

	compute := d.AddVertex("compute", plugin.Desc(ComputeProcessorName, computeConfig{
		Job:          job.Name,
		Program:      job.Program,
		ProgramCfg:   progCfg,
		Superstep:    it,
		Partitions:   job.Partitions,
		Info:         info,
		InboxDir:     inbox,
		Aggs:         agg,
		AggSpecs:     specs,
		DisableCache: job.DisableRegistryCache,
	}), job.Partitions)
	state := library.DFSSource("state", nil, 0)
	state.Initializer = plugin.Desc(StateInitializerName, stateInitConfig{
		Dir: stateDir(work, it), Partitions: job.Partitions, PrevNodes: prevNodes,
	})
	compute.Sources = []dag.DataSource{state}
	compute.Sinks = []dag.DataSink{
		library.DFSSink("snapshot", stateDir(work, it+1)),
		library.DFSSink("agg", aggDir(work, it)),
	}

	inboxV := d.AddVertex("inbox", plugin.Desc(InboxProcessorName, inboxConfig{
		Combine: prog.Combiner(),
	}), job.Partitions)
	inboxV.Sinks = []dag.DataSink{
		library.DFSSink("out", inboxDir(work, it+1)),
		library.DFSSink("mstats", mstatsDir(work, it)),
	}

	d.Connect(compute, inboxV, library.OrderedEdge(library.OrderedPartitionedConfig{
		Combiner: prog.Combiner().FuncName(),
	}))
	return d
}

package sparklike

import (
	"fmt"
	"math"

	"tez/internal/am"
	"tez/internal/dag"
	"tez/internal/library"
	"tez/internal/mapreduce"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/relop"
	"tez/internal/row"
	"tez/internal/runtime"
)

// K-means (Figure 11): each iteration is one 2-vertex DAG (assign →
// re-centre). In session mode consecutive iterations share one pre-warmed
// Tez session and its containers; the baseline runs every iteration as an
// isolated job with a fresh AM and cold containers.

// Registered processor names.
const (
	kmAssignProcessor = "sparklike.kmeans_assign"
	kmCenterProcessor = "sparklike.kmeans_center"
)

func init() {
	runtime.RegisterProcessor(kmAssignProcessor, func() runtime.Processor { return &kmAssign{} })
	runtime.RegisterProcessor(kmCenterProcessor, func() runtime.Processor { return &kmCenter{} })
}

// kmConfig is the assign processor's payload: the current centroids.
type kmConfig struct {
	Centroids [][2]float64
}

// kmAssign maps each point to its nearest centroid, emitting
// (centroidIdx, x, y, 1) for the re-centre step.
type kmAssign struct {
	ctx *runtime.Context
	cfg kmConfig
}

func (p *kmAssign) Initialize(ctx *runtime.Context) error {
	p.ctx = ctx
	return plugin.Decode(ctx.Payload, &p.cfg)
}

func (p *kmAssign) Run(in map[string]runtime.Input, out map[string]runtime.Output) error {
	rd, err := in["points"].Reader()
	if err != nil {
		return err
	}
	kv := rd.(runtime.KVReader)
	wAny, err := out["center"].Writer()
	if err != nil {
		return err
	}
	w := wAny.(runtime.KVWriter)
	for kv.Next() {
		r, err := row.Decode(kv.Value())
		if err != nil {
			return err
		}
		x, y := r[0].AsFloat(), r[1].AsFloat()
		best, bestD := 0, math.MaxFloat64
		for i, c := range p.cfg.Centroids {
			d := (x-c[0])*(x-c[0]) + (y-c[1])*(y-c[1])
			if d < bestD {
				best, bestD = i, d
			}
		}
		key := row.EncodeKey(nil, row.Int(int64(best)))
		val := row.Encode(nil, row.Row{row.Int(int64(best)), row.Float(x), row.Float(y)})
		if err := w.Write(key, val); err != nil {
			return err
		}
	}
	return kv.Err()
}

func (p *kmAssign) Close() error { return nil }

// kmCenter reduces each cluster's points to (idx, meanX, meanY, count).
type kmCenter struct{ ctx *runtime.Context }

func (p *kmCenter) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }

func (p *kmCenter) Run(in map[string]runtime.Input, out map[string]runtime.Output) error {
	rd, err := in["assign"].Reader()
	if err != nil {
		return err
	}
	g := rd.(runtime.GroupedKVReader)
	wAny, err := out["centroids"].Writer()
	if err != nil {
		return err
	}
	w := wAny.(runtime.KVWriter)
	for g.Next() {
		var sx, sy float64
		var n int64
		var idx int64
		for _, v := range g.Values() {
			r, err := row.Decode(v)
			if err != nil {
				return err
			}
			idx = r[0].AsInt()
			sx += r[1].AsFloat()
			sy += r[2].AsFloat()
			n++
		}
		outRow := row.Row{row.Int(idx), row.Float(sx / float64(n)), row.Float(sy / float64(n)), row.Int(n)}
		if err := w.Write(nil, row.Encode(nil, outRow)); err != nil {
			return err
		}
	}
	return g.Err()
}

func (p *kmCenter) Close() error { return nil }

// KMeansIterationDAG builds one iteration's DAG.
func KMeansIterationDAG(name string, points *relop.Table, centroids [][2]float64, outPath string) *dag.DAG {
	d := dag.New(name)
	assign := d.AddVertex("assign", plugin.Desc(kmAssignProcessor, kmConfig{Centroids: centroids}), -1)
	assign.Sources = []dag.DataSource{library.DFSSource("points", points.Files, 64*1024)}
	center := d.AddVertex("center", plugin.Desc(kmCenterProcessor, nil), 2)
	center.Sinks = []dag.DataSink{library.DFSSink("centroids", outPath)}
	d.Connect(assign, center, library.OrderedEdge(library.OrderedPartitionedConfig{}))
	return d
}

// RunKMeans iterates in the given session through am.RunLoop, submitting
// one DAG per iteration (§4.2: "Each iteration can be represented as a new
// DAG and submitted to a shared session for efficient execution"). Returns
// the final centroids.
func RunKMeans(sess *am.Session, plat *platform.Platform, points *relop.Table,
	initial [][2]float64, iterations int, scratch string) ([][2]float64, error) {
	centroids := append([][2]float64{}, initial...)
	outPath := func(it int) string { return fmt.Sprintf("%s/iter%03d", scratch, it) }
	_, err := sess.RunLoop(iterations,
		func(it int) (*dag.DAG, error) {
			out := outPath(it)
			plat.FS.DeletePrefix(out + "/")
			return KMeansIterationDAG(fmt.Sprintf("kmeans-it%03d", it), points, centroids, out), nil
		},
		func(it int, _ am.DAGResult) (bool, error) {
			rows, err := relop.ReadStored(plat.FS, outPath(it))
			if err != nil {
				return false, err
			}
			for _, r := range rows {
				idx := r[0].AsInt()
				if idx >= 0 && int(idx) < len(centroids) {
					centroids[idx] = [2]float64{r[1].AsFloat(), r[2].AsFloat()}
				}
			}
			return false, nil
		})
	if err != nil {
		return nil, err
	}
	return centroids, nil
}

// RunKMeansIsolated runs every iteration as a job of its own in a fresh
// AM under mapreduce.Classic — the per-iteration-job model the paper's
// Figure 11 baseline pays for.
func RunKMeansIsolated(plat *platform.Platform, amCfg am.Config, points *relop.Table,
	initial [][2]float64, iterations int, scratch string) ([][2]float64, error) {
	centroids := append([][2]float64{}, initial...)
	for it := 0; it < iterations; it++ {
		cfg := mapreduce.Classic(amCfg)
		cfg.Name = fmt.Sprintf("%s-it%03d", amCfg.Name, it)
		sess := am.NewSession(plat, cfg)
		out := fmt.Sprintf("%s/iter%03d", scratch, it)
		plat.FS.DeletePrefix(out + "/")
		d := KMeansIterationDAG(fmt.Sprintf("kmeansmr-it%03d", it), points, centroids, out)
		res, err := sess.Run(d)
		sess.Close()
		if err != nil {
			return nil, err
		}
		if res.Status != am.DAGSucceeded {
			return nil, fmt.Errorf("sparklike: kmeans iteration %d: %v", it, res.Status)
		}
		rows, err := relop.ReadStored(plat.FS, out)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			idx := r[0].AsInt()
			if idx >= 0 && int(idx) < len(centroids) {
				centroids[idx] = [2]float64{r[1].AsFloat(), r[2].AsFloat()}
			}
		}
	}
	return centroids, nil
}

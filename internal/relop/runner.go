package relop

import (
	"fmt"
	"slices"
	"time"

	"tez/internal/am"
	"tez/internal/col"
	"tez/internal/dag"
	"tez/internal/dfs"
	"tez/internal/library"
	"tez/internal/mapreduce"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/row"
	"tez/internal/runtime"
)

// mrTempInitializerName resolves an MR temp directory's part files at run
// time (they do not exist when the job chain is compiled).
const mrTempInitializerName = "relop.mr_temp_initializer"

func init() {
	runtime.RegisterInitializer(mrTempInitializerName, func() runtime.Initializer {
		return mrTempInitializer{}
	})
}

type mrTempInitializerConfig struct {
	Dir              string
	DesiredSplitSize int64
}

type mrTempInitializer struct{}

// Run lists the directory and delegates to the standard split logic.
func (mrTempInitializer) Run(ctx *runtime.InitializerContext) (*runtime.InitializerResult, error) {
	var cfg mrTempInitializerConfig
	if err := plugin.Decode(ctx.Payload, &cfg); err != nil {
		return nil, err
	}
	return library.SplitTasks(ctx.FS, ctx.FS.List(cfg.Dir+"/part-"), cfg.DesiredSplitSize)
}

// RunTez compiles the plan to one DAG and runs it in the session.
func RunTez(s *am.Session, cfg Config, name string, roots []*Node) (am.DAGResult, error) {
	d, err := NewCompiler(cfg).CompileTez(name, roots)
	if err != nil {
		return am.DAGResult{}, err
	}
	return s.Run(d)
}

// MRStats summarises a job-chain execution.
type MRStats struct {
	Jobs      int
	Duration  time.Duration
	PerJob    []time.Duration
	TempFiles int
}

// RunMR compiles the plan to an MR job chain and executes it: one fresh
// AM per job under mapreduce.Classic, all intermediate data through the
// DFS — the pre-Tez execution model.
func RunMR(plat *platform.Platform, amCfg am.Config, cfg Config, name string, roots []*Node) (MRStats, error) {
	jobs, tempRoot, err := CompileMR(cfg, name, roots)
	if err != nil {
		return MRStats{}, err
	}
	amCfg = mapreduce.Classic(amCfg)

	var stats MRStats
	start := time.Now()
	for _, job := range jobs {
		jobStart := time.Now()
		jobCfg := amCfg
		jobCfg.Name = job.Name
		res, err := am.RunDAG(plat, jobCfg, job.DAG)
		stats.PerJob = append(stats.PerJob, time.Since(jobStart))
		stats.Jobs++
		if err != nil {
			cleanupMR(plat.FS, tempRoot)
			return stats, fmt.Errorf("relop: MR job %s: %w", job.Name, err)
		}
		if res.Status != am.DAGSucceeded {
			cleanupMR(plat.FS, tempRoot)
			return stats, fmt.Errorf("relop: MR job %s: %v", job.Name, res.Status)
		}
	}
	stats.Duration = time.Since(start)
	stats.TempFiles = cleanupMR(plat.FS, tempRoot)
	return stats, nil
}

func cleanupMR(fs *dfs.FileSystem, tempRoot string) int {
	return fs.DeletePrefix(tempRoot + "/")
}

// WriteTable materialises rows as a catalogued table in the DFS: one
// table file per shard, the rows dealt to the shards round-robin.
func WriteTable(fs *dfs.FileSystem, t *Table, shards int, rows []row.Row) error {
	if shards <= 0 {
		shards = 1
	}
	nodes, err := resetTable(fs, t, rows)
	if err != nil {
		return err
	}
	for s := 0; s < shards; s++ {
		path := fmt.Sprintf("/tables/%s/shard-%03d", t.Name, s)
		if err := writeTableFile(fs, t, path, nodes[s%len(nodes)], rows, s, shards); err != nil {
			return err
		}
		t.Files = append(t.Files, path)
	}
	return nil
}

// WritePartitionedTable writes one file per partition value of column
// partCol (Hive-style static partitioning) so the pruning initializer can
// skip files.
func WritePartitionedTable(fs *dfs.FileSystem, t *Table, partCol int, rows []row.Row) error {
	nodes, err := resetTable(fs, t, rows)
	if err != nil {
		return err
	}
	groups := map[string][]row.Row{}
	var order []string
	vals := map[string]row.Value{}
	for _, r := range rows {
		k := string(row.EncodeKey(nil, r[partCol]))
		if _, ok := groups[k]; !ok {
			order = append(order, k)
			vals[k] = r[partCol]
		}
		groups[k] = append(groups[k], r)
	}
	t.PartitionVals, t.PartitionCol = nil, partCol
	for i, k := range order {
		path := fmt.Sprintf("/tables/%s/part-%03d", t.Name, i)
		if err := writeTableFile(fs, t, path, nodes[i%len(nodes)], groups[k], 0, 1); err != nil {
			return err
		}
		t.Files = append(t.Files, path)
		t.PartitionVals = append(t.PartitionVals, vals[k])
	}
	return nil
}

// resetTable empties t for rows about to be written and returns the DFS
// nodes its files go to. It refuses rows that are not as wide as t's
// schema: a stripe has one width, and a scan's pipeline indexes columns
// by the schema.
func resetTable(fs *dfs.FileSystem, t *Table, rows []row.Row) ([]string, error) {
	nodes := fs.LiveNodes()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("relop: no DFS nodes")
	}
	for i, r := range rows {
		if len(r) != t.Schema.Width() {
			return nil, fmt.Errorf("relop: table %s: row %d has %d columns, the schema %d", t.Name, i, len(r), t.Schema.Width())
		}
	}
	t.Files, t.Rows, t.SizeBytes = nil, int64(len(rows)), 0
	return nodes, nil
}

// writeTableFile writes rows[start], rows[start+step], … to path as a
// table file: a block-padded record file whose values are stripes
// (col.Stripe) of at most DefaultBatchSize rows, each cut to fit in the
// rest of its DFS block, so a block-aligned split holds whole stripes.
// t.SizeBytes grows by the rows' row-encoded size, the planner's measure.
func writeTableFile(fs *dfs.FileSystem, t *Table, path, node string, rows []row.Row, start, step int) error {
	w, err := library.CreateRecordFile(fs, path, node)
	if err != nil {
		return err
	}
	s := col.NewStripe()
	var frame, enc []byte
	room := 0 // bytes the open stripe's frame may take
	for i := start; i < len(rows); i += step {
		r := rows[i]
		enc = row.Encode(enc[:0], r)
		t.SizeBytes += int64(len(enc))
		if s.Len() > 0 && s.Len() < DefaultBatchSize && s.Add(r, room) {
			continue
		}
		if s.Len() > 0 {
			frame = s.AppendFrame(frame[:0])
			if err := w.Write(nil, frame); err != nil {
				return err
			}
		}
		// A stripe starts in the rest of the block when its first row fits
		// there, else at the next block.
		rest, block := w.ValueRoom()
		if room = rest; !s.Add(r, room) {
			if room = block; !s.Add(r, room) {
				return fmt.Errorf("relop: table %s: row %d does not fit in a DFS block", t.Name, i)
			}
		}
	}
	if s.Len() > 0 {
		if err := w.Write(nil, s.AppendFrame(frame[:0])); err != nil {
			return err
		}
	}
	return w.Close()
}

// ReadStored reads back the rows a StoreNode wrote: its committed part
// files, block-padded record files of row-encoded values.
func ReadStored(fs *dfs.FileSystem, path string) ([]row.Row, error) {
	var out []row.Row
	for _, f := range fs.List(path + "/part-") {
		data, err := fs.ReadFile(f, "")
		if err != nil {
			return nil, err
		}
		r := library.NewPaddedReader(data)
		for r.Next() {
			rr, err := row.Decode(r.Value())
			if err != nil {
				return nil, err
			}
			out = append(out, rr)
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SameRows reports whether a and b hold the same rows in any order,
// compared by their row encodings: the form that tells Int(1) from
// Float(1) and -0 from +0.
func SameRows(a, b []row.Row) bool {
	sorted := func(rows []row.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = string(row.Encode(nil, r))
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(sorted(a), sorted(b))
}

// EmitDAGOnly compiles without running (inspection/tests).
func EmitDAGOnly(cfg Config, name string, roots []*Node) (*dag.DAG, error) {
	return NewCompiler(cfg).CompileTez(name, roots)
}

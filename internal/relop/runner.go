package relop

import (
	"fmt"
	"time"

	"tez/internal/am"
	"tez/internal/dag"
	"tez/internal/dfs"
	"tez/internal/library"
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
// AM per job (no cross-job container reuse), fixed reduce parallelism, all
// intermediate data through the DFS — the pre-Tez execution model.
func RunMR(plat *platform.Platform, amCfg am.Config, cfg Config, name string, roots []*Node) (MRStats, error) {
	jobs, tempRoot, err := CompileMR(cfg, name, roots)
	if err != nil {
		return MRStats{}, err
	}
	// Enforce the MR execution model regardless of caller config.
	amCfg.DisableContainerReuse = true
	amCfg.DisableAutoParallelism = true
	amCfg.PrewarmContainers = 0

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
// record file per shard, rows in values, empty keys.
func WriteTable(fs *dfs.FileSystem, t *Table, shards int, rows []row.Row) error {
	if shards <= 0 {
		shards = 1
	}
	nodes := fs.LiveNodes()
	if len(nodes) == 0 {
		return fmt.Errorf("relop: no DFS nodes")
	}
	t.Files = nil
	t.Rows = int64(len(rows))
	t.SizeBytes = 0
	for s := 0; s < shards; s++ {
		path := fmt.Sprintf("/tables/%s/shard-%03d", t.Name, s)
		w, err := library.CreateRecordFile(fs, path, nodes[s%len(nodes)])
		if err != nil {
			return err
		}
		for i := s; i < len(rows); i += shards {
			buf := row.Encode(nil, rows[i])
			if err := w.Write(nil, buf); err != nil {
				return err
			}
			t.SizeBytes += int64(len(buf))
		}
		if err := w.Close(); err != nil {
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
	nodes := fs.LiveNodes()
	if len(nodes) == 0 {
		return fmt.Errorf("relop: no DFS nodes")
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
	t.Files = nil
	t.PartitionVals = nil
	t.PartitionCol = partCol
	t.Rows = int64(len(rows))
	t.SizeBytes = 0
	for i, k := range order {
		path := fmt.Sprintf("/tables/%s/part-%03d", t.Name, i)
		w, err := library.CreateRecordFile(fs, path, nodes[i%len(nodes)])
		if err != nil {
			return err
		}
		for _, r := range groups[k] {
			buf := row.Encode(nil, r)
			if err := w.Write(nil, buf); err != nil {
				return err
			}
			t.SizeBytes += int64(len(buf))
		}
		if err := w.Close(); err != nil {
			return err
		}
		t.Files = append(t.Files, path)
		t.PartitionVals = append(t.PartitionVals, vals[k])
	}
	return nil
}

// ReadRecordFile reads all rows of one block-padded record file (a table
// file or a committed part file).
func ReadRecordFile(fs *dfs.FileSystem, path string) ([]row.Row, error) {
	data, err := fs.ReadFile(path, "")
	if err != nil {
		return nil, err
	}
	var out []row.Row
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
	return out, nil
}

// ReadStored reads back the rows a StoreNode wrote.
func ReadStored(fs *dfs.FileSystem, path string) ([]row.Row, error) {
	var out []row.Row
	for _, f := range fs.List(path + "/part-") {
		rows, err := ReadRecordFile(fs, f)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// EmitDAGOnly compiles without running (inspection/tests).
func EmitDAGOnly(cfg Config, name string, roots []*Node) (*dag.DAG, error) {
	return NewCompiler(cfg).CompileTez(name, roots)
}

package library

import (
	"fmt"

	"tez/internal/dfs"
	"tez/internal/event"
	"tez/internal/plugin"
	"tez/internal/runtime"
)

// Registered names of the DFS-backed root input, sink output, committer
// and split initializer.
const (
	DFSSourceInputName   = "tez.dfs_source_input"
	DFSSinkOutputName    = "tez.dfs_sink_output"
	DFSCommitterName     = "tez.dfs_committer"
	SplitInitializerName = "tez.split_initializer"
)

func init() {
	runtime.RegisterInput(DFSSourceInputName, func() runtime.Input { return &DFSSourceInput{} })
	runtime.RegisterOutput(DFSSinkOutputName, func() runtime.Output { return &DFSSinkOutput{} })
	runtime.RegisterCommitter(DFSCommitterName, func() runtime.Committer { return &DFSCommitter{} })
	runtime.RegisterInitializer(SplitInitializerName, func() runtime.Initializer { return &SplitInitializer{} })
}

// RecordFileWriter writes KV records to a DFS file, padding so that no
// record straddles a block boundary: every byte-range split aligned to
// blocks is then a self-contained record stream.
type RecordFileWriter struct {
	w         *dfs.Writer
	blockSize int64
	inBlock   int64
	records   int64
}

// CreateRecordFile opens a record file for writing near localNode. The
// padding block size is the filesystem's block size: the invariant that a
// record never straddles a block (and therefore never straddles a
// block-aligned split) only holds when the two agree.
func CreateRecordFile(fs *dfs.FileSystem, path, localNode string) (*RecordFileWriter, error) {
	blockSize := fs.BlockSize()
	w, err := fs.Create(path, localNode)
	if err != nil {
		return nil, err
	}
	return &RecordFileWriter{w: w, blockSize: blockSize}, nil
}

// Write appends one record. Records larger than a block are rejected.
func (w *RecordFileWriter) Write(key, value []byte) error {
	sz := int64(RecordSize(key, value))
	if sz > w.blockSize {
		return fmt.Errorf("library: record of %d bytes exceeds block size %d", sz, w.blockSize)
	}
	if w.inBlock+sz > w.blockSize {
		// Pad the rest of the block; readers stop at the 0x00 marker.
		pad := make([]byte, w.blockSize-w.inBlock)
		if _, err := w.w.Write(pad); err != nil {
			return err
		}
		w.inBlock = 0
	}
	buf := AppendRecord(nil, key, value)
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	w.inBlock += sz
	w.records++
	return nil
}

// Records returns how many records were written.
func (w *RecordFileWriter) Records() int64 { return w.records }

// Close finalises the file.
func (w *RecordFileWriter) Close() error { return w.w.Close() }

// SplitAssignment is the RootInputDataInformation payload produced by
// SplitInitializer: the shards a particular task must read.
type SplitAssignment struct {
	Splits []dfs.Split
}

// splitRecordReader streams records from a task's assigned splits,
// reading each split's bytes from the DFS (charging locality-dependent
// read cost). It implements runtime.KVReader.
type splitRecordReader struct {
	fs     *dfs.FileSystem
	node   string
	splits []dfs.Split
	idx    int
	cur    *BufferReader
	err    error
}

// Next advances across split boundaries.
func (r *splitRecordReader) Next() bool {
	for {
		if r.err != nil {
			return false
		}
		if r.cur == nil {
			if r.idx >= len(r.splits) {
				return false
			}
			s := r.splits[r.idx]
			r.idx++
			data, err := r.fs.ReadAt(s.Path, r.node, s.Offset, s.Length)
			if err != nil {
				r.err = err
				return false
			}
			r.cur = NewPaddedReader(data) // splits carry whole, padded blocks
		}
		if r.cur.Next() {
			return true
		}
		if err := r.cur.Err(); err != nil {
			r.err = err
			return false
		}
		r.cur = nil
	}
}

func (r *splitRecordReader) Key() []byte   { return r.cur.Key() }
func (r *splitRecordReader) Value() []byte { return r.cur.Value() }
func (r *splitRecordReader) Err() error    { return r.err }

// DFSSourceInput is the root input of a vertex reading a DFS data source.
// Its split assignment arrives from the initializer as a
// RootInputDataInformation event; Reader waits until it does or the
// attempt is killed. It holds no goroutine, so Start and Close do nothing.
type DFSSourceInput struct {
	ctx    *runtime.Context
	splits []dfs.Split
	err    error // the assignment arrived but did not decode
	// assigned is closed once splits and err are set; Reader reads them
	// only after that.
	assigned chan struct{}
}

// Initialize stores the context.
func (in *DFSSourceInput) Initialize(ctx *runtime.Context) error {
	in.ctx = ctx
	in.assigned = make(chan struct{})
	return nil
}

// HandleEvent accepts the split assignment. The task runner drops handler
// errors (a failure surfaces on the task's own read path), so an
// assignment that does not decode is kept for Reader to return — the
// attempt fails with it instead of waiting for splits that never come.
// The first assignment stands; the runner's one event pump calls
// HandleEvent, so checking assigned before closing it needs no lock.
func (in *DFSSourceInput) HandleEvent(ev event.Event) error {
	ri, ok := ev.(event.RootInputDataInformation)
	if !ok {
		return nil
	}
	select {
	case <-in.assigned:
		return nil
	default:
	}
	var asn SplitAssignment
	if err := plugin.Decode(ri.Payload, &asn); err != nil {
		in.err = fmt.Errorf("library: %s: split assignment: %w", in.ctx.Name, err)
	}
	in.splits = asn.Splits
	close(in.assigned)
	return in.err
}

// Start does nothing: Reader waits on the assignment itself.
func (in *DFSSourceInput) Start() error { return nil }

// Reader waits for the split assignment, then streams its records.
func (in *DFSSourceInput) Reader() (any, error) {
	select {
	case <-in.assigned:
	case <-in.ctx.Stop:
		return nil, fmt.Errorf("library: %s: killed before split assignment", in.ctx.Name)
	}
	if in.err != nil {
		return nil, in.err
	}
	return &splitRecordReader{
		fs:     in.ctx.Services.FS,
		node:   in.ctx.Services.Node,
		splits: in.splits,
	}, nil
}

// Close does nothing: the input holds no goroutine.
func (in *DFSSourceInput) Close() error { return nil }

// DFSSinkConfig configures DFSSinkOutput and DFSCommitter with the final
// output directory.
type DFSSinkConfig struct {
	Path string
}

// DFSSinkOutput writes a task's final output to an attempt-unique
// temporary file under the sink directory; the DFSCommitter later makes
// exactly one attempt per task visible.
type DFSSinkOutput struct {
	ctx *runtime.Context
	cfg DFSSinkConfig
	buf []byte
}

// TempPath returns the attempt's temporary file name under a sink path.
func TempPath(path string, task, attempt int) string {
	return fmt.Sprintf("%s/.tmp/t%05d_a%d", path, task, attempt)
}

// FinalPath returns the committed file name of a task under a sink path.
func FinalPath(path string, task int) string {
	return fmt.Sprintf("%s/part-%05d", path, task)
}

// Initialize decodes the sink path.
func (o *DFSSinkOutput) Initialize(ctx *runtime.Context) error {
	o.ctx = ctx
	if err := plugin.Decode(ctx.Payload, &o.cfg); err != nil {
		return err
	}
	if o.cfg.Path == "" {
		return fmt.Errorf("library: dfs sink without path")
	}
	return nil
}

// Writer returns a runtime.KVWriter buffering records.
func (o *DFSSinkOutput) Writer() (any, error) {
	return kvWriterFunc(func(k, v []byte) error {
		o.buf = AppendRecord(o.buf, k, v)
		return nil
	}), nil
}

// Close writes the attempt's temporary file (side-effect free with respect
// to the final output: only the committer publishes). The file is written
// in the block-aligned record format so that committed output can itself
// be split and re-read as a data source (the MR chain does exactly that).
func (o *DFSSinkOutput) Close() ([]event.Event, error) {
	p := TempPath(o.cfg.Path, o.ctx.Meta.Task, o.ctx.Meta.Attempt)
	w, err := CreateRecordFile(o.ctx.Services.FS, p, o.ctx.Services.Node)
	if err != nil {
		return nil, err
	}
	r := NewBufferReader(o.buf)
	for r.Next() {
		if err := w.Write(r.Key(), r.Value()); err != nil {
			return nil, err
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return nil, w.Close()
}

// DFSCommitter publishes one successful attempt per task by renaming its
// temporary file to the final part file, then removes leftovers. Commit is
// idempotent per the once-only guarantee the AM provides.
type DFSCommitter struct{}

// Commit implements runtime.Committer.
func (DFSCommitter) Commit(ctx *runtime.CommitContext) error {
	var cfg DFSSinkConfig
	if err := plugin.Decode(ctx.Payload, &cfg); err != nil {
		return err
	}
	for task := 0; task < ctx.Parallelism; task++ {
		attempt, ok := ctx.SuccessfulAttempt[task]
		if !ok {
			return fmt.Errorf("library: commit %s: no successful attempt for task %d", cfg.Path, task)
		}
		from := TempPath(cfg.Path, task, attempt)
		to := FinalPath(cfg.Path, task)
		if err := ctx.FS.Rename(from, to); err != nil {
			// Idempotence across AM recovery: a previous AM may already
			// have published this task's output.
			if ctx.FS.Exists(to) && !ctx.FS.Exists(from) {
				continue
			}
			return fmt.Errorf("library: commit %s task %d: %w", cfg.Path, task, err)
		}
	}
	ctx.FS.DeletePrefix(cfg.Path + "/.tmp/")
	return nil
}

// SplitSourceConfig configures SplitInitializer.
type SplitSourceConfig struct {
	// Paths to read. All splits are concatenated.
	Paths []string
	// DesiredSplitSize in bytes says who sizes the tasks. > 0: the caller
	// does — files are cut at that size, one task per split. 0: the library
	// does — files are cut at block size and the splits grouped by bytes
	// and locality to DefaultGroupBytes per task (GroupSplits).
	DesiredSplitSize int64
}

// SplitInitializer is the built-in "split calculation" initializer (§3.5):
// it consults the DFS for data distribution and locality and decides at run
// time how many tasks read the source, which splits each reads and where it
// would best run (SplitTasks).
type SplitInitializer struct{}

// Run computes the split assignment.
func (SplitInitializer) Run(ctx *runtime.InitializerContext) (*runtime.InitializerResult, error) {
	var cfg SplitSourceConfig
	if err := plugin.Decode(ctx.Payload, &cfg); err != nil {
		return nil, err
	}
	return SplitTasks(ctx.FS, cfg.Paths, cfg.DesiredSplitSize)
}

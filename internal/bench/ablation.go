package bench

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"tez/internal/am"
	dagpkg "tez/internal/dag"
	"tez/internal/data"
	"tez/internal/hive"
	"tez/internal/library"
	"tez/internal/mapreduce"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/relop"
	"tez/internal/runtime"
	"tez/internal/timeline"
)

func init() {
	library.RegisterMapFunc("bench.tokenize", func(_, value []byte, out runtime.KVWriter) error {
		for _, w := range strings.Fields(string(value)) {
			if err := out.Write([]byte(w), []byte("1")); err != nil {
				return err
			}
		}
		return nil
	})
	library.RegisterReduceFunc("bench.count", func(key []byte, values [][]byte, out runtime.KVWriter) error {
		return out.Write(key, []byte(strconv.Itoa(len(values))))
	})
}

// writeWords writes a synthetic text input.
func writeWords(plat *platform.Platform, path string, lines int) error {
	w, err := library.CreateRecordFile(plat.FS, path, plat.FS.LiveNodes()[0])
	if err != nil {
		return err
	}
	for i := 0; i < lines; i++ {
		line := fmt.Sprintf("w%d w%d w%d common words here %d", i%97, i%31, i%7, i)
		if err := w.Write(nil, []byte(line)); err != nil {
			return err
		}
	}
	return w.Close()
}

// timeWordCountSession runs n wordcount DAGs in one session under cfg and
// returns the total duration plus scheduler stats.
func timeWordCountSession(plat *platform.Platform, cfg am.Config, jobs int) (time.Duration, int, int, error) {
	sess := am.NewSession(plat, cfg)
	defer sess.Close()
	start := time.Now()
	for i := 0; i < jobs; i++ {
		job := mapreduce.JobConf{
			Name: fmt.Sprintf("wc%d", i), Map: "bench.tokenize", Reduce: "bench.count",
			InputPaths: []string{"/bench/words"}, OutputPath: fmt.Sprintf("/bench/abl/%s/wc%d", cfg.Name, i),
		}
		res, err := mapreduce.RunOnTez(sess, job)
		if err != nil {
			return 0, 0, 0, err
		}
		if res.Status != am.DAGSucceeded {
			return 0, 0, 0, fmt.Errorf("wc%d: %v", i, res.Status)
		}
	}
	dur := time.Since(start)
	alloc, reused := sess.SchedulerStats()
	return dur, alloc, reused, nil
}

// ablationContainerReuse measures §4.2 container reuse: the same DAG
// sequence with and without reuse.
func ablationContainerReuse(sc Scale) (*Report, error) {
	plat := platform.New(platform.Default(6))
	defer plat.Stop()
	if err := writeWords(plat, "/bench/words", sc.PigRows/2); err != nil {
		return nil, err
	}
	rep := &Report{
		Figure:  "Ablation",
		Title:   "Container reuse (§4.2)",
		Headers: []string{"mode", "total (ms)", "containers allocated", "reuses"},
	}
	for _, disable := range []bool{true, false} {
		cfg := am.Config{Name: fmt.Sprintf("reuse-%v", !disable), DisableContainerReuse: disable,
			ContainerIdleRelease: 200 * time.Millisecond}
		dur, alloc, reused, err := timeWordCountSession(plat, cfg, 4)
		if err != nil {
			return nil, err
		}
		mode := "reuse on"
		if disable {
			mode = "reuse off"
		}
		rep.AddRow(mode, ms(dur), fmt.Sprintf("%d", alloc), fmt.Sprintf("%d", reused))
	}
	return rep, nil
}

// ablationSession measures session pre-warming (§4.2): first-DAG latency
// with a cold vs pre-warmed session.
func ablationSession(sc Scale) (*Report, error) {
	cfg := platform.Default(6)
	// Make process start-up visible at simulation scale (a real YARN
	// container localisation + JVM launch is seconds).
	cfg.Cluster.ContainerLaunchOverhead = 20 * time.Millisecond
	cfg.Cluster.WarmupPenalty = 8 * time.Millisecond
	plat := platform.New(cfg)
	defer plat.Stop()
	if err := writeWords(plat, "/bench/words", sc.PigRows/2); err != nil {
		return nil, err
	}
	rep := &Report{
		Figure:  "Ablation",
		Title:   "Session pre-warm (§4.2)",
		Headers: []string{"mode", "first DAG (ms)"},
	}
	for _, prewarm := range []int{0, 4} {
		cfg := am.Config{Name: fmt.Sprintf("warm-%d", prewarm), PrewarmContainers: prewarm,
			ContainerIdleRelease: 300 * time.Millisecond}
		sess := am.NewSession(plat, cfg)
		if prewarm > 0 {
			time.Sleep(30 * time.Millisecond) // let the warm pool build
		}
		start := time.Now()
		job := mapreduce.JobConf{
			Name: "wc", Map: "bench.tokenize", Reduce: "bench.count",
			InputPaths: []string{"/bench/words"}, OutputPath: fmt.Sprintf("/bench/abl/warm%d", prewarm),
		}
		if _, err := mapreduce.RunOnTez(sess, job); err != nil {
			sess.Close()
			return nil, err
		}
		dur := time.Since(start)
		sess.Close()
		mode := "cold session"
		if prewarm > 0 {
			mode = fmt.Sprintf("pre-warmed (%d)", prewarm)
		}
		rep.AddRow(mode, ms(dur))
	}
	return rep, nil
}

// ablationAutoParallelism measures the ShuffleVertexManager estimate
// (Figure 6): reducer waves with and without runtime shrinking.
func ablationAutoParallelism(sc Scale) (*Report, error) {
	plat := platform.New(platform.Default(6))
	defer plat.Stop()
	if err := writeWords(plat, "/bench/words", sc.PigRows/2); err != nil {
		return nil, err
	}
	rep := &Report{
		Figure:  "Ablation",
		Title:   "Automatic reduce parallelism (§3.4, Figure 6)",
		Headers: []string{"mode", "total (ms)", "reduce tasks run"},
		Notes:   []string{"DAG submitted with 16 reducers; tiny shuffle volume"},
	}
	for _, disable := range []bool{true, false} {
		journal := timeline.New()
		cfg := am.Config{Name: fmt.Sprintf("auto-%v", !disable), DisableAutoParallelism: disable, Timeline: journal}
		sess := am.NewSession(plat, cfg)
		job := mapreduce.JobConf{
			Name: "wc", Map: "bench.tokenize", Reduce: "bench.count", Reducers: 16,
			InputPaths: []string{"/bench/words"}, OutputPath: fmt.Sprintf("/bench/abl/auto-%v", disable),
		}
		start := time.Now()
		_, err := mapreduce.RunOnTez(sess, job)
		dur := time.Since(start)
		sess.Close()
		if err != nil {
			return nil, err
		}
		reduces := 0
		for _, e := range journal.Events() {
			if e.Type == timeline.AttemptFinished && e.Vertex == "reduce" && e.Info == "SUCCEEDED" {
				reduces++
			}
		}
		mode := "auto-parallelism on"
		if disable {
			mode = "auto-parallelism off"
		}
		rep.AddRow(mode, ms(dur), fmt.Sprintf("%d", reduces))
	}
	return rep, nil
}

// ablationPartitionPruning measures §3.5 dynamic partition pruning: bytes
// of the partitioned fact actually read.
func ablationPartitionPruning(sc Scale) (*Report, error) {
	plat := platform.New(platform.Default(6))
	defer plat.Stop()
	td, err := data.GenTPCDS(plat.FS, sc.TPCDSSales, 13)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Figure:  "Ablation",
		Title:   "Dynamic partition pruning (§3.5)",
		Headers: []string{"mode", "query (ms)", "DFS bytes read"},
		Notes:   []string{"q55-style star join filtered to one month of the date-partitioned fact"},
	}
	sql := `SELECT i.i_brand_id, sum(ss.ss_sales_price) AS rev
		FROM store_sales_p ss
		JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk
		JOIN item i ON ss.ss_item_sk = i.i_item_sk
		WHERE d.d_moy = 11 AND d.d_year = 1998
		GROUP BY i.i_brand_id ORDER BY rev DESC LIMIT 10`
	for _, pruning := range []bool{false, true} {
		eng := hive.NewEngine()
		eng.EnablePruning = pruning
		eng.Exec = relop.Config{DefaultPartitions: 8}
		eng.Register(td.Tables()...)
		sess := am.NewSession(plat, am.Config{Name: fmt.Sprintf("prune-%v", pruning)})
		before := plat.FS.BytesRead()
		start := time.Now()
		if _, err := eng.RunTez(sess, fmt.Sprintf("q55-%v", pruning), sql, fmt.Sprintf("/bench/abl/prune-%v", pruning)); err != nil {
			sess.Close()
			return nil, err
		}
		dur := time.Since(start)
		sess.Close()
		readBytes := plat.FS.BytesRead() - before
		mode := "pruning off"
		if pruning {
			mode = "pruning on"
		}
		rep.AddRow(mode, ms(dur), fmt.Sprintf("%d", readBytes))
	}
	return rep, nil
}

// ablationLocality measures locality-aware scheduling with delay
// scheduling (§4.2) against placement-oblivious allocation.
func ablationLocality(sc Scale) (*Report, error) {
	rep := &Report{
		Figure:  "Ablation",
		Title:   "Locality-aware scheduling + delay scheduling (§4.2)",
		Headers: []string{"mode", "total (ms)", "node-local", "rack-local", "off-switch"},
	}
	for _, disable := range []bool{true, false} {
		cfg := platform.Default(8)
		cfg.Cluster.DisableDelayScheduling = disable
		if disable {
			cfg.Cluster.NodeLocalityDelay = 0
			cfg.Cluster.RackLocalityDelay = 0
		}
		plat := platform.New(cfg)
		if err := writeWords(plat, "/bench/words", sc.PigRows); err != nil {
			plat.Stop()
			return nil, err
		}
		amCfg := am.Config{Name: fmt.Sprintf("loc-%v", !disable)}
		sess := am.NewSession(plat, amCfg)
		job := mapreduce.JobConf{
			Name: "wc", Map: "bench.tokenize", Reduce: "bench.count",
			InputPaths: []string{"/bench/words"}, OutputPath: "/bench/abl/loc",
		}
		start := time.Now()
		res, err := mapreduce.RunOnTez(sess, job)
		dur := time.Since(start)
		sess.Close()
		plat.Stop()
		if err != nil {
			return nil, err
		}
		mode := "delay scheduling on"
		if disable {
			mode = "delay scheduling off"
		}
		rep.AddRow(mode, ms(dur),
			fmt.Sprintf("%d", res.Counters.Get("LOCALITY_NODE_LOCAL")),
			fmt.Sprintf("%d", res.Counters.Get("LOCALITY_RACK_LOCAL")),
			fmt.Sprintf("%d", res.Counters.Get("LOCALITY_OFF_SWITCH")))
	}
	return rep, nil
}

// ablationSlowStart measures shuffle slow-start (§3.4): overlapping the
// fetch with remaining producers versus waiting for all of them.
func ablationSlowStart(sc Scale) (*Report, error) {
	cfg := platform.Default(6)
	// Slow start pays off when the shuffle transfer is expensive enough to
	// be worth overlapping with the tail of the map phase.
	cfg.Shuffle.DelayPerByteRemote = 60 * time.Nanosecond
	cfg.Shuffle.DelayPerByteRack = 40 * time.Nanosecond
	plat := platform.New(cfg)
	defer plat.Stop()
	if err := writeWords(plat, "/bench/words", sc.PigRows*3); err != nil {
		return nil, err
	}
	rep := &Report{
		Figure:  "Ablation",
		Title:   "Shuffle slow-start (§3.4)",
		Headers: []string{"mode", "total (ms)"},
	}
	for _, disable := range []bool{true, false} {
		cfg := am.Config{Name: fmt.Sprintf("ss-%v", !disable)}
		if disable {
			cfg.SlowStartMin, cfg.SlowStartMax = 1, 1
		}
		dur, _, _, err := timeWordCountSession(plat, cfg, 2)
		if err != nil {
			return nil, err
		}
		mode := "slow-start on"
		if disable {
			mode = "slow-start off"
		}
		rep.AddRow(mode, ms(dur))
	}
	return rep, nil
}

// ablationParallelFetch measures the parallel shuffle fetcher pool
// (§3.4): with per-byte transfer costs dominated by remote fetches, a
// reducer pulling many producer outputs pays the max of overlapping
// transfer delays instead of their sum.
func ablationParallelFetch(sc Scale) (*Report, error) {
	cfg := platform.Default(6)
	// Make the shuffle remote-heavy so serial fetching is the bottleneck:
	// transfer delay well above the slow-start ablation's, plus a per-fetch
	// base latency that a serial pump pays once per producer.
	cfg.Shuffle.FetchBaseLatency = 500 * time.Microsecond
	cfg.Shuffle.DelayPerByteRemote = 400 * time.Nanosecond
	cfg.Shuffle.DelayPerByteRack = 300 * time.Nanosecond
	plat := platform.New(cfg)
	defer plat.Stop()
	if err := writeWords(plat, "/bench/words", sc.PigRows*10); err != nil {
		return nil, err
	}
	rep := &Report{
		Figure:  "Ablation",
		Title:   "Parallel shuffle fetchers (§3.4)",
		Headers: []string{"mode", "total (ms)"},
	}
	for _, fetchers := range []int{1, 0} {
		// Best of two runs per mode: scheduling jitter at simulation scale
		// is large relative to the fetch savings being measured.
		var best time.Duration
		for rerun := 0; rerun < 2; rerun++ {
			cfg := am.Config{Name: fmt.Sprintf("pf-%d-%d", fetchers, rerun), ShuffleFetchParallelism: fetchers}
			dur, _, _, err := timeWordCountSession(plat, cfg, 2)
			if err != nil {
				return nil, err
			}
			if best == 0 || dur < best {
				best = dur
			}
		}
		mode := "parallel fetch on"
		if fetchers == 1 {
			mode = "parallel fetch off (serial)"
		}
		rep.AddRow(mode, ms(best))
	}
	return rep, nil
}

// ablationObjectRegistry measures the shared object registry (§4.2): how
// many broadcast-join hash tables are built with and without caching.
func ablationObjectRegistry(sc Scale) (*Report, error) {
	plat := platform.New(platform.Default(4))
	defer plat.Stop()
	td, err := data.GenTPCDS(plat.FS, sc.TPCDSSales, 14)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Figure:  "Ablation",
		Title:   "Shared object registry: broadcast-join hash table (§4.2)",
		Headers: []string{"mode", "query (ms)", "hash tables built", "cache hits"},
	}
	sql := `SELECT i.i_category, sum(ss.ss_sales_price) AS rev
		FROM store_sales ss JOIN item i ON ss.ss_item_sk = i.i_item_sk
		GROUP BY i.i_category ORDER BY rev DESC`
	for _, disable := range []bool{true, false} {
		eng := hive.NewEngine()
		eng.BroadcastThreshold = 1 << 30 // force map join
		// One probe task per block of store_sales: the registry is about
		// many probe tasks sharing a container's table, and library-sized
		// scan tasks would leave this small fact a single task.
		eng.Exec = relop.Config{DefaultPartitions: 8, DisableRegistryCache: disable, SplitSize: plat.FS.BlockSize()}
		eng.Register(td.Tables()...)
		sess := am.NewSession(plat, am.Config{Name: fmt.Sprintf("reg-%v", !disable)})
		start := time.Now()
		res, err := eng.RunTez(sess, fmt.Sprintf("regq-%v", disable), sql, fmt.Sprintf("/bench/abl/reg-%v", disable))
		dur := time.Since(start)
		sess.Close()
		if err != nil {
			return nil, err
		}
		mode := "registry on"
		if disable {
			mode = "registry off"
		}
		rep.AddRow(mode, ms(dur),
			fmt.Sprintf("%d", res.Counters.Get("HASHTABLE_BUILDS")),
			fmt.Sprintf("%d", res.Counters.Get("HASHTABLE_CACHE_HITS")))
	}
	return rep, nil
}

// slowFirstAttempt simulates an environment-induced straggler: one task's
// first attempt stalls until killed; any re-attempt is fast.
type slowFirstAttempt struct{ ctx *runtime.Context }

func (p *slowFirstAttempt) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *slowFirstAttempt) Run(_ map[string]runtime.Input, out map[string]runtime.Output) error {
	if p.ctx.Meta.Task == 0 && p.ctx.Meta.Attempt == 0 {
		select {
		case <-p.ctx.Stop:
			return nil
		case <-time.After(2 * time.Second):
			return fmt.Errorf("straggler ran to its timeout")
		}
	}
	w, err := out["sink"].Writer()
	if err != nil {
		return err
	}
	return w.(runtime.KVWriter).Write([]byte(fmt.Sprintf("t%d", p.ctx.Meta.Task)), []byte("ok"))
}
func (p *slowFirstAttempt) Close() error { return nil }

func init() {
	runtime.RegisterProcessor("bench.straggler", func() runtime.Processor { return &slowFirstAttempt{} })
}

// ablationSpeculation measures straggler mitigation (§4.2): a DAG with one
// environment-stuck task, with and without speculative execution. Without
// speculation the straggler runs to its 2s timeout and fails the attempt;
// with it, a speculative twin finishes the task long before.
func ablationSpeculation(sc Scale) (*Report, error) {
	rep := &Report{
		Figure:  "Ablation",
		Title:   "Speculative execution (§4.2)",
		Headers: []string{"mode", "total (ms)", "speculative attempts"},
		Notes:   []string{"one task's first attempt hangs for 2s (an environment-induced straggler)"},
	}
	for _, speculate := range []bool{false, true} {
		plat := platform.New(platform.Default(4))
		d := dagpkg.New("straggle")
		v := d.AddVertex("v", plugin.Desc("bench.straggler", nil), 8)
		v.Sinks = []dagpkg.DataSink{library.DFSSink("sink", "/bench/abl/spec")}
		cfg := am.Config{
			Name:                fmt.Sprintf("spec-%v", speculate),
			Speculation:         speculate,
			SpeculationInterval: 2 * time.Millisecond,
			SpeculationFactor:   4,
			MaxTaskAttempts:     4,
		}
		start := time.Now()
		res, err := am.RunDAG(plat, cfg, d)
		dur := time.Since(start)
		plat.FS.DeletePrefix("/bench/abl/spec/")
		plat.Stop()
		if err != nil {
			return nil, err
		}
		mode := "speculation off"
		if speculate {
			mode = "speculation on"
		}
		rep.AddRow(mode, ms(dur), fmt.Sprintf("%d", res.Counters.Get("SPECULATIVE_ATTEMPTS")))
	}
	return rep, nil
}

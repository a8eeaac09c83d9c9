package main

import (
	"bytes"
	"fmt"
	"time"

	"tez/internal/am"
	"tez/internal/data"
	"tez/internal/dfs"
	"tez/internal/hive"
	"tez/internal/platform"
	"tez/internal/relop"
	"tez/internal/row"
)

// The two Hive queries, copied from internal/bench/hive.go (TPC-H derived,
// the paper's Figure 9 shapes).
const (
	// scanAggSQL is q1 — scan, filter, project, six-group aggregation —
	// with the ship-date cut moved from 1998 to the end of 1992, the first
	// of the data's seven years. The planner does no map-side partial
	// aggregation, so with q1's own cut every lineitem row crosses the
	// shuffle and sort+merge is a quarter of the job's CPU; with this one
	// an eighth of the rows do and the library's share is under 5 %, which
	// is what this workload is for.
	scanAggSQL = `SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty,
			sum(l_extendedprice) AS sum_price, avg(l_discount) AS avg_disc, count(*) AS cnt
		FROM lineitem WHERE l_shipdate <= 19921231
		GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`
	// joinAggSQL is q18: shuffle join orders⋈lineitem, one group per
	// order, top-k.
	joinAggSQL = `SELECT o.o_orderkey, sum(l.l_quantity) AS qty
		FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
		GROUP BY o.o_orderkey ORDER BY qty DESC LIMIT 10`
)

// encodeRows is the comparison form of a query result: the row codec's
// bytes, in result order.
func encodeRows(rows []row.Row) []byte {
	var buf []byte
	for _, r := range rows {
		buf = row.Encode(buf, r)
	}
	return buf
}

func readResult(fs *dfs.FileSystem, out string) ([]byte, int, error) {
	rows, err := relop.ReadStored(fs, out)
	if err != nil {
		return nil, 0, err
	}
	return encodeRows(rows), len(rows), nil
}

// setupHive builds one of the two Hive workloads: TPC-H-shaped tables on
// a 16-node platform and one shared session with four pre-warmed
// containers, as Hive deployments run. Every job plans the query and runs
// it as a single Tez DAG.
func setupHive(e *env, name, sql string) (instance, error) {
	rec := e.rec
	sp := rec.begin("setup.platform", -1, -1)
	cfg := e.platformConfig(16)
	plat := platform.New(cfg)
	rec.end(sp)

	sp = rec.begin("setup.data", -1, -1)
	eng := hive.NewEngine()
	tp, err := data.GenTPCH(plat.FS, e.size.tpchOrders, e.seed)
	rec.end(sp)
	if err != nil {
		plat.Stop()
		return nil, err
	}
	eng.Register(tp.Tables()...)

	// The session is configured as internal/bench/hive.go configures the
	// shared Hive session. The idle release is not a nicety: at the 25 ms
	// default this workload is bistable. Either the session keeps a few
	// containers and reuses them for every task (0 allocations per job,
	// q18 ≈ 215 ms) or idle ones are released in a job's single-task tail
	// and ten are allocated afresh each job (q18 ≈ 165 ms, 5 % more bytes
	// allocated); which one a run lands in is decided in its first jobs
	// and three runs in ten landed in the second.
	sp = rec.begin("setup.session", -1, -1)
	sess := am.NewSession(plat, am.Config{
		Name:                 name,
		PrewarmContainers:    4,
		ContainerIdleRelease: 200 * time.Millisecond,
		Timeline:             e.journal,
	})
	rec.end(sp)

	// The sort probe replays a lineitem-shaped edge: the join key in
	// front of a wide encoded row, sorted in one run (the engine sets no
	// sort budget).
	lineitem := lineitemRows(e.seed+1, 8192)
	probeKeys := make([][]byte, len(lineitem))
	for i, r := range lineitem {
		probeKeys[i] = row.EncodeKey(nil, r[0])
	}

	var ref []byte
	var refRows int
	j := &dataJobs{
		e: e, name: name, plat: plat, sess: sess,
		probe: probeShape{
			nodes:      16,
			sortKeys:   probeKeys,
			sortValue:  row.Encode(nil, lineitem[0]),
			sortBytes:  -1,
			parts:      4,
			fetchBytes: 8 << 10, // a few hundred rows per producer partition
			fileBytes:  int(tp.Lineitem.SizeBytes) / len(tp.Lineitem.Files),
			dfs:        cfg.DFS,
			shuffle:    cfg.Shuffle,
		},
		run: func(out string, parent, no int) (am.DAGResult, time.Duration, int64, error) {
			ps := rec.begin("job.plan", parent, no)
			start := time.Now()
			roots, err := eng.Plan(sql, out, false)
			plan := time.Since(start)
			rec.end(ps)
			if err != nil {
				return am.DAGResult{}, plan, 0, err
			}
			rs := rec.begin("job.run", parent, no)
			res, err := relop.RunTez(sess, eng.Exec, fmt.Sprintf("%s-%d", name, no), roots)
			rec.end(rs)
			// Every row a stage emits goes to an edge or to the sink.
			var records int64
			if res.Counters != nil {
				records = res.Counters.Get("ROWS_EMITTED") - int64(refRows)
			}
			return res, plan, records, err
		},
		check: func(out string) error {
			got, n, err := readResult(plat.FS, out)
			if err != nil {
				return err
			}
			if ref == nil {
				if n == 0 {
					return fmt.Errorf("query returned no rows")
				}
				ref, refRows = got, n
				return nil
			}
			if !bytes.Equal(got, ref) {
				return fmt.Errorf("result rows differ from the first job's")
			}
			return nil
		},
		// The same query as a chain of MapReduce jobs is the independent
		// computation: another planner path, another executor.
		final: func() error {
			if ref == nil {
				return fmt.Errorf("%s: no job produced output", name)
			}
			mrOut := "/bench/out/" + name + "-mr"
			if _, err := eng.RunMR(plat, am.Config{Name: name + "-mr"}, name+"-mr", sql, mrOut); err != nil {
				return fmt.Errorf("%s on MapReduce: %w", name, err)
			}
			want, _, err := readResult(plat.FS, mrOut)
			if err != nil {
				return err
			}
			if !bytes.Equal(ref, want) {
				return fmt.Errorf("%s: Tez rows differ from the MapReduce chain's", name)
			}
			return nil
		},
	}
	sp = rec.begin("setup.warmup", -1, -1)
	err = j.warmUp()
	rec.end(sp)
	if err != nil {
		j.close()
		return nil, err
	}
	return j, nil
}

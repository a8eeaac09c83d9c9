// Package-level benchmarks: one testing.B benchmark per paper figure
// (Figures 8–13) and one per ablation, each regenerating its table/series
// through the internal/bench harness at small scale. `go test -bench=.`
// therefore re-derives every evaluation artifact of the paper; run
// `go run ./cmd/tez-bench -scale full` for the paper-sized variants.
package main

import (
	"fmt"
	"testing"
	"time"

	"tez/internal/am"
	"tez/internal/bench"
	"tez/internal/data"
	"tez/internal/hive"
	"tez/internal/library"
	"tez/internal/mapreduce"
	"tez/internal/platform"
	"tez/internal/relop"
)

func runFigure(b *testing.B, f func(bench.Scale) (*bench.Report, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := f(bench.Small)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkFigure8HiveTPCDS regenerates Figure 8: Hive TPC-DS derived
// workload, MR vs Tez.
func BenchmarkFigure8HiveTPCDS(b *testing.B) { runFigure(b, bench.HiveTPCDS) }

// BenchmarkFigure9HiveTPCH regenerates Figure 9: Hive TPC-H derived
// workload at larger cluster scale, MR vs Tez.
func BenchmarkFigure9HiveTPCH(b *testing.B) { runFigure(b, bench.HiveTPCH) }

// BenchmarkFigure10PigProduction regenerates Figure 10: the production
// ETL mix, MR vs Tez.
func BenchmarkFigure10PigProduction(b *testing.B) { runFigure(b, bench.PigProduction) }

// BenchmarkFigure11KMeans regenerates Figure 11: iterative K-means,
// per-iteration AMs vs one shared session.
func BenchmarkFigure11KMeans(b *testing.B) { runFigure(b, bench.KMeansIterations) }

// BenchmarkFigure12SparkTimelines regenerates Figure 12: per-user
// container timelines, service daemons vs Tez.
func BenchmarkFigure12SparkTimelines(b *testing.B) { runFigure(b, bench.SparkTimelines) }

// BenchmarkFigure13SparkLatency regenerates Figure 13: multi-tenant job
// latency vs scale, service daemons vs Tez.
func BenchmarkFigure13SparkLatency(b *testing.B) { runFigure(b, bench.SparkLatency) }

// Ablation benchmarks for the design choices DESIGN.md calls out.

func BenchmarkAblationContainerReuse(b *testing.B)   { runFigure(b, bench.AblationContainerReuse) }
func BenchmarkAblationSession(b *testing.B)          { runFigure(b, bench.AblationSession) }
func BenchmarkAblationAutoParallelism(b *testing.B)  { runFigure(b, bench.AblationAutoParallelism) }
func BenchmarkAblationPartitionPruning(b *testing.B) { runFigure(b, bench.AblationPartitionPruning) }
func BenchmarkAblationLocality(b *testing.B)         { runFigure(b, bench.AblationLocality) }
func BenchmarkAblationSlowStart(b *testing.B)        { runFigure(b, bench.AblationSlowStart) }
func BenchmarkAblationParallelFetch(b *testing.B)    { runFigure(b, bench.AblationParallelFetch) }
func BenchmarkAblationObjectRegistry(b *testing.B)   { runFigure(b, bench.AblationObjectRegistry) }
func BenchmarkAblationSpeculation(b *testing.B)      { runFigure(b, bench.AblationSpeculation) }

// BenchmarkAblationShuffleSort regenerates the shuffle sort data-plane
// table: boxed pairs vs arena key-prefix index sort vs spill-constrained vs flate
// (run `make bench-shuffle` to persist it as BENCH_shuffle.json).
func BenchmarkAblationShuffleSort(b *testing.B) { runFigure(b, bench.AblationShuffleSort) }

// BenchmarkAblationShuffleCodec regenerates the end-to-end wire codec
// table (wordcount/Hive/Pig under codec none vs flate).
func BenchmarkAblationShuffleCodec(b *testing.B) { runFigure(b, bench.AblationShuffleCodec) }

// BenchmarkChaosRobustness runs the seeded fault-injection table: the
// same workload under each chaos schedule, asserting identical results.
func BenchmarkChaosRobustness(b *testing.B) { runFigure(b, bench.ChaosRobustness) }

// Profilable copies of the repository benchmark's workloads (benchmark/ is
// a module of its own that stock `go test` flags do not reach): the same
// platform, data, session settings and SQL, one job per iteration, so that
//
//	go test -run XXX -bench HiveSession -cpuprofile cpu.out -memprofile mem.out .
//
// profiles what benchmark/run.sh times. `make profile` runs them and
// prints the payload-encoding frames.

// warmSession is the shared Hive session of benchmark/hive.go: four
// pre-warmed containers, and an idle release long enough that a job's
// single-task tail does not hand them back.
func warmSession(plat *platform.Platform, name string) *am.Session {
	return am.NewSession(plat, am.Config{
		Name:                 name,
		PrewarmContainers:    4,
		ContainerIdleRelease: 200 * time.Millisecond,
	})
}

// BenchmarkHiveSession runs hive-scanagg (TPC-H q1 with a one-year
// ship-date cut) and hive-joinagg (q18) over GenTPCH(20000) in a warm
// session: plan, run as one Tez DAG, drop the result.
func BenchmarkHiveSession(b *testing.B) {
	plat := platform.New(platform.Default(16))
	defer plat.Stop()
	tp, err := data.GenTPCH(plat.FS, 20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng := hive.NewEngine()
	eng.Register(tp.Tables()...)
	for _, q := range []struct{ name, sql string }{
		{"scanagg", `SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty,
			sum(l_extendedprice) AS sum_price, avg(l_discount) AS avg_disc, count(*) AS cnt
			FROM lineitem WHERE l_shipdate <= 19921231
			GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`},
		{"joinagg", `SELECT o.o_orderkey, sum(l.l_quantity) AS qty
			FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
			GROUP BY o.o_orderkey ORDER BY qty DESC LIMIT 10`},
	} {
		b.Run(q.name, func(b *testing.B) {
			sess := warmSession(plat, "bench-"+q.name)
			defer sess.Close()
			job := func(i int) {
				out := fmt.Sprintf("/bench/out/%s-%d", q.name, i)
				roots, err := eng.Plan(q.sql, out, false)
				if err != nil {
					b.Fatal(err)
				}
				if res, err := relop.RunTez(sess, eng.Exec, fmt.Sprintf("%s-%d", q.name, i), roots); err != nil || res.Status != am.DAGSucceeded {
					b.Fatalf("%v %v", res.Status, err)
				}
				plat.FS.DeletePrefix(out + "/")
			}
			job(-1) // warm-up: containers launched, first-use paths taken
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job(i)
			}
		})
	}
}

// BenchmarkSmallMRDAG runs service-open's unit of work — a 4-map ×
// 2-reduce word count over 3 200 records — serially in a warm session:
// almost all of it is per-task and per-fetch fixed cost.
func BenchmarkSmallMRDAG(b *testing.B) {
	plat := platform.New(platform.Default(16))
	defer plat.Stop()
	nodes := plat.FS.LiveNodes()
	var inputs []string
	for f := 0; f < 4; f++ {
		path := fmt.Sprintf("/bench/in/words-%d", f)
		w, err := library.CreateRecordFile(plat.FS, path, nodes[f%len(nodes)])
		if err != nil {
			b.Fatal(err)
		}
		for l := 0; l < 100; l++ {
			line := ""
			for i := 0; i < 8; i++ {
				line += fmt.Sprintf("w%03d ", (f*800+l*8+i)*7%600)
			}
			if err := w.Write(nil, []byte(line)); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, path)
	}
	sess := warmSession(plat, "bench-smallmr")
	defer sess.Close()
	job := func(i int) {
		out := fmt.Sprintf("/bench/out/mr-%d", i)
		res, err := mapreduce.RunOnTez(sess, mapreduce.JobConf{
			Name: fmt.Sprintf("mr-%d", i), Map: "bench.tokenize", Reduce: "bench.count",
			InputPaths: inputs, OutputPath: out, Reducers: 2,
		})
		if err != nil || res.Status != am.DAGSucceeded {
			b.Fatalf("%v %v", res.Status, err)
		}
		plat.FS.DeletePrefix(out + "/")
	}
	job(-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job(i)
	}
}

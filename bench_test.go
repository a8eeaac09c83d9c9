// Package-level benchmarks: BenchmarkExperiments runs every row of the
// internal/bench experiment table (paper Figures 8–13, chaos, the
// ablations) at small scale, one sub-benchmark per row, so `go test
// -bench=.` re-derives every evaluation artifact of the paper; run
// `go run ./cmd/tez-bench -scale full` for the paper-sized variants and
// `-exp controlplane,graph` for the opt-in rows left out here.
package main

import (
	"fmt"
	"runtime"
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

func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments {
		if e.OptIn {
			continue
		}
		b.Run(e.Key, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := e.Run(bench.Small)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Rows) == 0 {
					b.Fatal("empty report")
				}
			}
		})
	}
}

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
			// A warm session must not collect goroutines job after job.
			b.ReportMetric(float64(runtime.NumGoroutine()), "goroutines")
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

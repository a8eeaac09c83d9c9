// Package-level benchmarks: one testing.B benchmark per paper figure
// (Figures 8–13) and one per ablation, each regenerating its table/series
// through the internal/bench harness at small scale. `go test -bench=.`
// therefore re-derives every evaluation artifact of the paper; run
// `go run ./cmd/tez-bench -scale full` for the paper-sized variants.
package main

import (
	"testing"

	"tez/internal/bench"
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

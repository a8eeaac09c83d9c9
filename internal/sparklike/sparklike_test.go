package sparklike

import (
	"math"
	"sort"
	"testing"
	"time"

	"tez/internal/am"
	"tez/internal/cluster"
	"tez/internal/data"
	"tez/internal/platform"
	"tez/internal/relop"
	"tez/internal/row"
	"tez/internal/timeline"
)

func TestPartitionJobBothExecutors(t *testing.T) {
	plat := platform.New(platform.Fast(4))
	defer plat.Stop()
	tb, err := data.GenZipfPairs(plat.FS, "li", 1000, 40, 1.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	job := PartitionJob{Table: tb, KeyCol: 0, Partitions: 3, OutPath: "/out/part-tez"}

	sess := am.NewSession(plat, am.Config{Name: "tezjob"})
	defer sess.Close()
	if err := RunPartitionTez(sess, "p", job); err != nil {
		t.Fatal(err)
	}
	tezRows, err := relop.ReadStored(plat.FS, "/out/part-tez")
	if err != nil {
		t.Fatal(err)
	}
	if len(tezRows) != 1000 {
		t.Fatalf("tez rows = %d", len(tezRows))
	}

	svc, err := StartService(plat, "svc", 3, cluster.Resource{MemoryMB: 1024, VCores: 1}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	job.OutPath = "/out/part-svc"
	if err := svc.RunPartition("j1", job); err != nil {
		t.Fatal(err)
	}
	svcRows, err := relop.ReadStored(plat.FS, "/out/part-svc")
	if err != nil {
		t.Fatal(err)
	}
	if len(svcRows) != 1000 {
		t.Fatalf("service rows = %d", len(svcRows))
	}
	// Same multiset of rows from both executors.
	if key(tezRows) != key(svcRows) {
		t.Fatal("executors disagree on partition job output")
	}
}

func key(rows []row.Row) string {
	ks := make([]string, len(rows))
	for i, r := range rows {
		ks[i] = string(row.EncodeKey(nil, r...))
	}
	sort.Strings(ks)
	out := ""
	for _, k := range ks {
		out += k + "|"
	}
	return out
}

func TestServiceHoldsResourcesTezReleases(t *testing.T) {
	plat := platform.New(platform.Fast(4))
	defer plat.Stop()

	svc, err := StartService(plat, "holder", 4, cluster.Resource{MemoryMB: 1024, VCores: 1}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Idle service still holds 4 containers.
	time.Sleep(20 * time.Millisecond)
	if got := svc.app.Allocated().MemoryMB; got != 4*1024 {
		t.Fatalf("idle service holds %d MB", got)
	}
	svc.Close()
	if got := plat.RM.UsedResources().MemoryMB; got != 0 {
		t.Fatalf("after close, cluster still used: %d", got)
	}

	// A Tez session with a short idle-release gives capacity back.
	sess := am.NewSession(plat, am.Config{Name: "eph", ContainerIdleRelease: 5 * time.Millisecond})
	defer sess.Close()
	tb, err := data.GenZipfPairs(plat.FS, "li2", 200, 10, 1.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunPartitionTez(sess, "p", PartitionJob{Table: tb, KeyCol: 0, Partitions: 2, OutPath: "/out/eph"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && plat.RM.UsedResources().MemoryMB > 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if got := plat.RM.UsedResources().MemoryMB; got != 0 {
		t.Fatalf("tez session still holds %d MB after idle", got)
	}
}

func TestKMeansConvergesAndSessionMatchesIsolated(t *testing.T) {
	plat := platform.New(platform.Fast(4))
	defer plat.Stop()
	points, truth, err := data.GenPoints(plat.FS, "pts", 600, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Seed near the true centres (k-means is only locally convergent).
	initial := make([][2]float64, len(truth))
	for i, c := range truth {
		initial[i] = [2]float64{c[0] + 4, c[1] - 4}
	}

	sess := am.NewSession(plat, am.Config{Name: "km", PrewarmContainers: 2})
	defer sess.Close()
	got, err := RunKMeans(sess, plat, points, initial, 5, "/tmp/km")
	if err != nil {
		t.Fatal(err)
	}
	gotIso, err := RunKMeansIsolated(plat, am.Config{Name: "kmiso"}, points, initial, 5, "/tmp/kmiso")
	if err != nil {
		t.Fatal(err)
	}
	// Both execution modes compute identical centroids.
	for i := range got {
		if math.Abs(got[i][0]-gotIso[i][0]) > 1e-9 || math.Abs(got[i][1]-gotIso[i][1]) > 1e-9 {
			t.Fatalf("session vs isolated centroids differ: %v vs %v", got, gotIso)
		}
	}
	// And each found centroid is near some true centre.
	for _, c := range got {
		best := math.MaxFloat64
		for _, tr := range truth {
			d := math.Hypot(c[0]-tr[0], c[1]-tr[1])
			if d < best {
				best = d
			}
		}
		if best > 10 {
			t.Fatalf("centroid %v too far from any true centre %v", c, truth)
		}
	}
}

// TestKMeansIsolatedKeepsCenterParallelism: the isolated baseline runs
// every iteration under the MR model, so its 2-task center vertex keeps
// both tasks even when the shuffle into it is small enough (600 points,
// well under the ShuffleVertexManager's bytes-per-reducer target) for
// auto-parallelism to shrink it to one.
func TestKMeansIsolatedKeepsCenterParallelism(t *testing.T) {
	plat := platform.New(platform.Fast(4))
	defer plat.Stop()
	points, truth, err := data.GenPoints(plat.FS, "pts", 600, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	journal := timeline.New()
	const iterations = 3
	if _, err := RunKMeansIsolated(plat, am.Config{Name: "kmiso", Timeline: journal}, points, truth, iterations, "/tmp/kmiso"); err != nil {
		t.Fatal(err)
	}
	tasks := map[string]map[int]bool{} // per iteration DAG, the center tasks scheduled
	for _, e := range journal.Events() {
		if e.Type == timeline.TaskScheduled && e.Vertex == "center" {
			if tasks[e.DAG] == nil {
				tasks[e.DAG] = map[int]bool{}
			}
			tasks[e.DAG][e.Task] = true
		}
	}
	if len(tasks) != iterations {
		t.Fatalf("center tasks seen in %d DAGs, want %d: %v", len(tasks), iterations, tasks)
	}
	for dag, ts := range tasks {
		if len(ts) != 2 {
			t.Errorf("%s ran %d center tasks, want 2", dag, len(ts))
		}
	}
}

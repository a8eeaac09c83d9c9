package hive

import (
	"fmt"
	"testing"
	"time"

	"tez/internal/am"
	"tez/internal/cluster"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/relop"
	"tez/internal/row"
)

// TestGobDecodesFollowContainersNotTasks: gob is left only on payloads that
// are the same for every task of a vertex (the stage programs), and those
// are decoded once per container and shared through its object registry.
// So the same plan over the same rows written in 8 files and in 64 — 8 and
// 64 scan tasks — costs a number of gob decodes bounded by containers ×
// vertices both times, where it used to cost one per task, two per producer
// partition and one per fetch. The cluster has four single-container nodes
// and the session keeps what it is given, so four containers is all there
// ever are.
func TestGobDecodesFollowContainersNotTasks(t *testing.T) {
	const sql = `SELECT g, count(*) AS n, sum(v) AS s FROM t WHERE k >= 100 GROUP BY g ORDER BY g`
	rows := make([]row.Row, 2000)
	for i := range rows {
		rows[i] = row.Row{row.Int(int64(i)), row.Int(int64(i % 7)), row.Float(float64(i) / 4)}
	}
	run := func(files int) (decodes, tasks, bound int64, result []string) {
		cfg := platform.Fast(4)
		cfg.Cluster.NodeResource = cluster.Resource{MemoryMB: 1024, VCores: 1}
		plat := platform.New(cfg)
		defer plat.Stop()
		tbl := &relop.Table{Name: "t", Schema: row.NewSchema("k:int", "g:int", "v:float")}
		if err := relop.WriteTable(plat.FS, tbl, files, rows); err != nil {
			t.Fatal(err)
		}
		eng := NewEngine()
		eng.Register(tbl)
		// One scan task per block, so the file count sets the task count
		// (left to the library, either layout groups into one task).
		eng.Exec.SplitSize = plat.FS.BlockSize()
		sess := am.NewSession(plat, am.Config{Name: "gobcost", ContainerIdleRelease: 10 * time.Second})
		defer sess.Close()
		roots, err := eng.Plan(sql, "/results/gobcost", false)
		if err != nil {
			t.Fatal(err)
		}
		before := plugin.GobDecodes()
		res, err := relop.RunTez(sess, eng.Exec, "gobcost", roots)
		decodes = plugin.GobDecodes() - before
		if err != nil || res.Status != am.DAGSucceeded {
			t.Fatalf("%d files: %v %v", files, res.Status, err)
		}
		out, err := relop.ReadStored(plat.FS, "/results/gobcost")
		if err != nil {
			t.Fatal(err)
		}
		containers, _ := sess.SchedulerStats()
		if containers > 4 {
			t.Fatalf("%d files: %d containers allocated on a four-container cluster", files, containers)
		}
		return decodes, res.Counters.Get("TASKS_SUCCEEDED"),
			int64(containers) * res.Counters.Get("VERTICES_SUCCEEDED"), renderRows(out)
	}
	d8, t8, bound8, rows8 := run(8)
	d64, t64, bound64, rows64 := run(64)
	t.Logf("8 files: %d tasks, %d gob decodes (bound %d); 64 files: %d tasks, %d gob decodes (bound %d)",
		t8, d8, bound8, t64, d64, bound64)
	if t8 < 8 || t64 < 64 {
		t.Fatalf("%d and %d tasks: the file count did not set the task count", t8, t64)
	}
	if d8 == 0 || d8 > bound8 || d64 == 0 || d64 > bound64 {
		t.Fatalf("gob decodes %d (bound %d) and %d (bound %d): want at least one and at most containers × vertices",
			d8, bound8, d64, bound64)
	}
	if d64 >= t64 {
		t.Fatalf("%d gob decodes for %d tasks: still paid per task", d64, t64)
	}
	if len(rows8) != 7 || len(rows64) != len(rows8) {
		t.Fatalf("results: %v and %v", rows8, rows64)
	}
	for i := range rows8 {
		if rows8[i] != rows64[i] {
			t.Fatalf("row %d: %q over 8 files, %q over 64", i, rows8[i], rows64[i])
		}
	}
}

// TestGobDecodesFollowContainersNotRuns is the same bound across DAGs: a
// warm session caches each stage program for the session, so running a
// plan five times costs no more gob decodes than running it once — both
// at most containers × vertices. One node with room for two containers,
// held for the whole session, runs every task.
func TestGobDecodesFollowContainersNotRuns(t *testing.T) {
	const sql = `SELECT g, count(*) AS n, sum(v) AS s FROM t WHERE k >= 100 GROUP BY g ORDER BY g`
	rows := make([]row.Row, 2000)
	for i := range rows {
		rows[i] = row.Row{row.Int(int64(i)), row.Int(int64(i % 7)), row.Float(float64(i) / 4)}
	}
	run := func(runs int) (decodes, bound int64, result []string) {
		cfg := platform.Fast(1)
		cfg.Cluster.NodeResource = cluster.Resource{MemoryMB: 2048, VCores: 2}
		plat := platform.New(cfg)
		defer plat.Stop()
		tbl := &relop.Table{Name: "t", Schema: row.NewSchema("k:int", "g:int", "v:float")}
		if err := relop.WriteTable(plat.FS, tbl, 16, rows); err != nil {
			t.Fatal(err)
		}
		eng := NewEngine()
		eng.Register(tbl)
		eng.Exec.SplitSize = plat.FS.BlockSize()
		sess := am.NewSession(plat, am.Config{Name: "gobruns", ContainerIdleRelease: 10 * time.Second})
		defer sess.Close()
		var vertices int64
		for i := 0; i < runs; i++ {
			out := fmt.Sprintf("/results/gobruns-%d", i)
			roots, err := eng.Plan(sql, out, false)
			if err != nil {
				t.Fatal(err)
			}
			before := plugin.GobDecodes()
			res, err := relop.RunTez(sess, eng.Exec, fmt.Sprintf("gobruns-%d", i), roots)
			decodes += plugin.GobDecodes() - before
			if err != nil || res.Status != am.DAGSucceeded {
				t.Fatalf("run %d of %d: %v %v", i+1, runs, res.Status, err)
			}
			vertices = res.Counters.Get("VERTICES_SUCCEEDED")
			stored, err := relop.ReadStored(plat.FS, out)
			if err != nil {
				t.Fatal(err)
			}
			got := renderRows(stored)
			if result != nil && fmt.Sprint(got) != fmt.Sprint(result) {
				t.Fatalf("run %d of %d: %q, run 1: %q", i+1, runs, got, result)
			}
			result = got
		}
		containers, _ := sess.SchedulerStats()
		if containers > 2 {
			t.Fatalf("%d runs: %d containers allocated on a two-container cluster", runs, containers)
		}
		return decodes, int64(containers) * vertices, result
	}
	d1, bound1, rows1 := run(1)
	d5, bound5, rows5 := run(5)
	t.Logf("1 run: %d gob decodes (bound %d); 5 runs: %d gob decodes (bound %d)", d1, bound1, d5, bound5)
	if d1 == 0 || d1 > bound1 || d5 == 0 || d5 > bound5 {
		t.Fatalf("gob decodes %d (bound %d) over 1 run and %d (bound %d) over 5: want at least one and at most containers × vertices",
			d1, bound1, d5, bound5)
	}
	if len(rows1) != 7 || fmt.Sprint(rows1) != fmt.Sprint(rows5) {
		t.Fatalf("results: %v and %v", rows1, rows5)
	}
}

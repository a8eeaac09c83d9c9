package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"tez/internal/am"
	"tez/internal/data"
	"tez/internal/hive"
	"tez/internal/platform"
	"tez/internal/relop"
	"tez/internal/row"
)

// runHiveSuite measures every query on the MR chain and on Tez (shared
// pre-warmed session, as Hive deployments run).
func runHiveSuite(figure, title string, nodes int, queries []data.Query,
	setup func(plat *platform.Platform, eng *hive.Engine) error) (*Report, error) {

	plat := platform.New(platform.Default(nodes))
	defer plat.Stop()
	eng := hive.NewEngine()
	eng.Exec = relop.Config{DefaultPartitions: 8}
	if err := setup(plat, eng); err != nil {
		return nil, err
	}

	rep := &Report{
		Figure:  figure,
		Title:   title,
		Headers: []string{"query", "MR (ms)", "Tez (ms)", "speedup", "MR jobs"},
		Notes: []string{
			fmt.Sprintf("%d simulated nodes; Tez: single DAG per query, broadcast joins, auto reduce parallelism, shared pre-warmed session", nodes),
			"MR: one AM per job, chain materialised through the DFS, fixed reducers, no container reuse",
		},
	}

	sess := am.NewSession(plat, am.Config{
		Name:                 "hive-tez",
		PrewarmContainers:    4,
		ContainerIdleRelease: 200 * time.Millisecond,
	})
	defer sess.Close()

	for _, q := range queries {
		mrOut := "/bench/" + q.Name + "-mr"
		start := time.Now()
		stats, err := eng.RunMR(plat, am.Config{Name: q.Name + "-mr"}, q.Name+"-mr", q.SQL, mrOut)
		if err != nil {
			return nil, fmt.Errorf("%s on MR: %w", q.Name, err)
		}
		mrDur := time.Since(start)

		tezOut := "/bench/" + q.Name + "-tez"
		start = time.Now()
		if _, err := eng.RunTez(sess, q.Name+"-tez", q.SQL, tezOut); err != nil {
			return nil, fmt.Errorf("%s on Tez: %w", q.Name, err)
		}
		tezDur := time.Since(start)

		// Cross-check: both backends computed the same result.
		a, err := relop.ReadStored(plat.FS, mrOut)
		if err != nil {
			return nil, err
		}
		b, err := relop.ReadStored(plat.FS, tezOut)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(canonicalRows(a), canonicalRows(b)) {
			return nil, fmt.Errorf("%s: MR and Tez answers differ (%d vs %d rows)", q.Name, len(a), len(b))
		}
		rep.AddRow(q.Name, ms(mrDur), ms(tezDur), speedup(mrDur, tezDur), fmt.Sprintf("%d", stats.Jobs))
	}
	return rep, nil
}

// canonicalRows is the form hive.TestTezAndMRAgree compares answers in:
// each row's values rendered and joined by "|", the rows sorted.
func canonicalRows(rows []row.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		vals := make([]string, len(r))
		for j, v := range r {
			vals[j] = v.String()
		}
		out[i] = strings.Join(vals, "|")
	}
	slices.Sort(out)
	return out
}

// hiveTPCDS regenerates Figure 8: Hive, TPC-DS derived workload, Tez vs MR.
func hiveTPCDS(sc Scale) (*Report, error) {
	return runHiveSuite("Figure 8", "Hive: TPC-DS derived workload ("+sc.Name+" scale)",
		sc.NodesF8, data.TPCDSQueries,
		func(plat *platform.Platform, eng *hive.Engine) error {
			td, err := data.GenTPCDS(plat.FS, sc.TPCDSSales, 8)
			if err != nil {
				return err
			}
			eng.Register(td.Tables()...)
			return nil
		})
}

// hiveTPCH regenerates Figure 9: Hive, TPC-H derived workload at larger
// cluster scale, Tez vs MR.
func hiveTPCH(sc Scale) (*Report, error) {
	return runHiveSuite("Figure 9", "Hive: TPC-H derived workload ("+sc.Name+" scale)",
		sc.NodesF9, data.TPCHQueries,
		func(plat *platform.Platform, eng *hive.Engine) error {
			tp, err := data.GenTPCH(plat.FS, sc.TPCHOrders, 9)
			if err != nil {
				return err
			}
			eng.Register(tp.Tables()...)
			return nil
		})
}

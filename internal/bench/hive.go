package bench

import (
	"fmt"
	"time"

	"tez/internal/am"
	"tez/internal/data"
	"tez/internal/hive"
	"tez/internal/platform"
	"tez/internal/relop"
)

// namedQuery is one benchmark query.
type namedQuery struct {
	name string
	sql  string
}

// tpcdsQueries are TPC-DS-derived star-join/aggregation shapes (Figure 8).
// q55 runs against the date-partitioned fact copy, so the Tez plan prunes
// partitions dynamically from the filtered date dimension.
var tpcdsQueries = []namedQuery{
	{"q55", `SELECT i.i_brand_id, sum(ss.ss_sales_price) AS rev
		FROM store_sales_p ss
		JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk
		JOIN item i ON ss.ss_item_sk = i.i_item_sk
		WHERE d.d_moy = 11 AND d.d_year = 1998
		GROUP BY i.i_brand_id ORDER BY rev DESC LIMIT 10`},
	{"q3", `SELECT d.d_year, i.i_brand_id, sum(ss.ss_sales_price) AS agg
		FROM store_sales ss
		JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk
		JOIN item i ON ss.ss_item_sk = i.i_item_sk
		WHERE i.i_manufact_id = 5 AND d.d_moy = 12
		GROUP BY d.d_year, i.i_brand_id ORDER BY agg DESC LIMIT 10`},
	{"q7", `SELECT i.i_category, avg(ss.ss_quantity) AS qty
		FROM store_sales ss JOIN item i ON ss.ss_item_sk = i.i_item_sk
		GROUP BY i.i_category ORDER BY i.i_category`},
	{"q19", `SELECT i.i_brand, sum(ss.ss_sales_price) AS rev
		FROM store_sales ss
		JOIN item i ON ss.ss_item_sk = i.i_item_sk
		JOIN store s ON ss.ss_store_sk = s.s_store_sk
		WHERE s.s_state = 'CA'
		GROUP BY i.i_brand ORDER BY rev DESC LIMIT 10`},
	{"q27", `SELECT s.s_state, avg(ss.ss_quantity) AS q
		FROM store_sales ss JOIN store s ON ss.ss_store_sk = s.s_store_sk
		GROUP BY s.s_state ORDER BY s.s_state`},
}

// tpchQueries are TPC-H-derived shapes (Figure 9).
var tpchQueries = []namedQuery{
	{"q1", `SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty,
			sum(l_extendedprice) AS sum_price, avg(l_discount) AS avg_disc, count(*) AS cnt
		FROM lineitem WHERE l_shipdate <= 19980902
		GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`},
	{"q3", `SELECT l.l_orderkey, sum(l.l_extendedprice) AS rev
		FROM lineitem l
		JOIN orders o ON l.l_orderkey = o.o_orderkey
		JOIN customer c ON o.o_custkey = c.c_custkey
		WHERE c.c_mktsegment = 'BUILDING' AND o.o_orderdate < 19950315
		GROUP BY l.l_orderkey ORDER BY rev DESC LIMIT 10`},
	{"q5", `SELECT n.n_name, sum(l.l_extendedprice) AS rev
		FROM lineitem l
		JOIN supplier s ON l.l_suppkey = s.s_suppkey
		JOIN nation n ON s.s_nationkey = n.n_nationkey
		GROUP BY n.n_name ORDER BY rev DESC`},
	{"q12", `SELECT l_linestatus, count(*) AS n
		FROM lineitem WHERE l_shipdate BETWEEN 19940101 AND 19941231
		GROUP BY l_linestatus ORDER BY l_linestatus`},
	{"q18", `SELECT o.o_orderkey, sum(l.l_quantity) AS qty
		FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
		GROUP BY o.o_orderkey ORDER BY qty DESC LIMIT 10`},
}

// runHiveSuite measures every query on the MR chain and on Tez (shared
// pre-warmed session, as Hive deployments run).
func runHiveSuite(figure, title string, nodes int, queries []namedQuery,
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
		mrOut := "/bench/" + q.name + "-mr"
		start := time.Now()
		stats, err := eng.RunMR(plat, am.Config{Name: q.name + "-mr"}, q.name+"-mr", q.sql, mrOut)
		if err != nil {
			return nil, fmt.Errorf("%s on MR: %w", q.name, err)
		}
		mrDur := time.Since(start)

		tezOut := "/bench/" + q.name + "-tez"
		start = time.Now()
		if _, err := eng.RunTez(sess, q.name+"-tez", q.sql, tezOut); err != nil {
			return nil, fmt.Errorf("%s on Tez: %w", q.name, err)
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
		if len(a) != len(b) {
			return nil, fmt.Errorf("%s: MR %d rows vs Tez %d rows", q.name, len(a), len(b))
		}
		rep.AddRow(q.name, ms(mrDur), ms(tezDur), speedup(mrDur, tezDur), fmt.Sprintf("%d", stats.Jobs))
	}
	return rep, nil
}

// hiveTPCDS regenerates Figure 8: Hive, TPC-DS derived workload, Tez vs MR.
func hiveTPCDS(sc Scale) (*Report, error) {
	return runHiveSuite("Figure 8", "Hive: TPC-DS derived workload ("+sc.Name+" scale)",
		sc.NodesF8, tpcdsQueries,
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
		sc.NodesF9, tpchQueries,
		func(plat *platform.Platform, eng *hive.Engine) error {
			tp, err := data.GenTPCH(plat.FS, sc.TPCHOrders, 9)
			if err != nil {
				return err
			}
			eng.Register(tp.Tables()...)
			return nil
		})
}

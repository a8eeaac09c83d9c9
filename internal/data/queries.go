package data

// Query is one named benchmark query over the generated tables.
type Query struct {
	Name string
	SQL  string
}

// TPCDSQueries are TPC-DS-derived star-join/aggregation shapes (Figure 8).
// q55 runs against the date-partitioned fact copy, so the Tez plan prunes
// partitions dynamically from the filtered date dimension.
var TPCDSQueries = []Query{
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

// TPCHQueries are TPC-H-derived shapes (Figure 9).
var TPCHQueries = []Query{
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

package data

import (
	"testing"

	"tez/internal/col"
	"tez/internal/dfs"
	"tez/internal/library"
	"tez/internal/relop"
)

func newFS(t *testing.T) *dfs.FileSystem {
	t.Helper()
	fs := dfs.New(dfs.Config{BlockSize: 8 * 1024, Replication: 2})
	for _, n := range []string{"n0", "n1", "n2"} {
		fs.AddNode(n, "r0")
	}
	return fs
}

func readAll(t *testing.T, fs *dfs.FileSystem, tb *relop.Table) int {
	t.Helper()
	total := 0
	for _, f := range tb.Files {
		if !fs.Exists(f) {
			t.Fatalf("table %s file %s missing", tb.Name, f)
		}
	}
	rows, err := relopReadFiles(fs, tb)
	if err != nil {
		t.Fatal(err)
	}
	total = len(rows)
	for _, r := range rows {
		if len(r) != tb.Schema.Width() {
			t.Fatalf("table %s row width %d, schema %d", tb.Name, len(r), tb.Schema.Width())
		}
	}
	return total
}

func relopReadFiles(fs *dfs.FileSystem, tb *relop.Table) ([][]any, error) {
	var out [][]any
	for _, f := range tb.Files {
		data, err := fs.ReadFile(f, "")
		if err != nil {
			return nil, err
		}
		rs := col.NewStripeRows(library.NewPaddedReader(data))
		for rs.Next() {
			r := rs.Batch().MaterializeRow(rs.Row())
			anyRow := make([]any, len(r))
			for i, v := range r {
				anyRow[i] = v
			}
			out = append(out, anyRow)
		}
		if err := rs.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func TestGenTPCHShapes(t *testing.T) {
	fs := newFS(t)
	tp, err := GenTPCH(fs, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, fs, tp.Orders); got != 200 {
		t.Fatalf("orders = %d", got)
	}
	lines := readAll(t, fs, tp.Lineitem)
	if lines < 200 || lines > 200*7 {
		t.Fatalf("lineitem = %d", lines)
	}
	if tp.Lineitem.Rows != int64(lines) {
		t.Fatalf("stats rows %d != %d", tp.Lineitem.Rows, lines)
	}
	if tp.Lineitem.SizeBytes <= 0 {
		t.Fatal("no size stats")
	}
	readAll(t, fs, tp.Customer)
	readAll(t, fs, tp.Nation)
}

func TestGenTPCDSShapes(t *testing.T) {
	fs := newFS(t)
	td, err := GenTPCDS(fs, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, fs, td.StoreSales); got != 300 {
		t.Fatalf("store_sales = %d", got)
	}
	if got := readAll(t, fs, td.StoreSalesPartitioned); got != 300 {
		t.Fatalf("partitioned = %d", got)
	}
	if len(td.StoreSalesPartitioned.PartitionVals) != len(td.StoreSalesPartitioned.Files) {
		t.Fatal("partition metadata inconsistent")
	}
	if len(td.StoreSalesPartitioned.Files) < 2 {
		t.Fatal("fact not partitioned")
	}
	readAll(t, fs, td.DateDim)
	readAll(t, fs, td.Item)
}

func TestGenZipfSkewed(t *testing.T) {
	fs := newFS(t)
	tb, err := GenZipfPairs(fs, "z", 2000, 50, 1.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := relopReadFiles(fs, tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2000 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestGenPoints(t *testing.T) {
	fs := newFS(t)
	tb, centers, err := GenPoints(fs, "p", 500, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) != 4 {
		t.Fatalf("centers = %d", len(centers))
	}
	rows, err := relopReadFiles(fs, tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 500 {
		t.Fatalf("rows = %d", len(rows))
	}
}

package relop

import (
	"bytes"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"strings"
	"testing"

	"tez/internal/col"
	"tez/internal/dfs"
	"tez/internal/event"
	"tez/internal/library"
	"tez/internal/plugin"
	"tez/internal/row"
	"tez/internal/runtime"
)

func tableFS(blockSize int64) *dfs.FileSystem {
	fs := dfs.New(dfs.Config{BlockSize: blockSize, Replication: 1})
	fs.AddNode("n0", "r0")
	return fs
}

// TestWriteTableRejectsRaggedRows: a table file's stripes have the
// schema's width, so a row of any other width is refused, the error
// naming the table and the row.
func TestWriteTableRejectsRaggedRows(t *testing.T) {
	tb := &Table{Name: "ragged", Schema: row.NewSchema("a:int", "b:int")}
	ok := row.Row{row.Int(1), row.Int(2)}
	for _, bad := range []row.Row{{row.Int(3)}, {row.Int(3), row.Int(4), row.Int(5)}} {
		rows := []row.Row{ok, ok, bad}
		for name, write := range map[string]func() error{
			"WriteTable":            func() error { return WriteTable(tableFS(4<<10), tb, 2, rows) },
			"WritePartitionedTable": func() error { return WritePartitionedTable(tableFS(4<<10), tb, 0, rows) },
		} {
			err := write()
			if err == nil || !strings.Contains(err.Error(), "ragged") || !strings.Contains(err.Error(), "row 2") {
				t.Errorf("%s with a %d-column row: %v, want an error naming table ragged and row 2", name, len(bad), err)
			}
		}
	}
}

// TestTableFileStripes: a table file is a block-padded record file of
// stripes, each at most DefaultBatchSize rows and cut to the rest of its
// block — the padding a block ends with is less than a one-row stripe —
// and reading the stripes back gives the rows written, in order.
func TestTableFileStripes(t *testing.T) {
	const blockSize = 4 << 10
	fs := tableFS(blockSize)
	rng := rand.New(rand.NewSource(5))
	rows := make([]row.Row, 6000)
	for i := range rows {
		rows[i] = row.Row{row.Int(int64(i)), row.Float(rng.Float64()),
			row.String(fmt.Sprint("s", rng.Intn(100))), row.Int(rng.Int63n(7))}
		if i%13 == 0 {
			rows[i][2] = row.Null()
		}
	}
	tb := &Table{Name: "striped", Schema: row.NewSchema("a:int", "b:float", "c", "d:int")}
	if err := WriteTable(fs, tb, 1, rows); err != nil {
		t.Fatal(err)
	}
	var rowBytes int64
	for _, r := range rows {
		rowBytes += int64(len(row.Encode(nil, r)))
	}
	if tb.SizeBytes != rowBytes {
		t.Fatalf("SizeBytes %d, want the row-encoded size %d", tb.SizeBytes, rowBytes)
	}
	data, err := fs.ReadFile(tb.Files[0], "")
	if err != nil {
		t.Fatal(err)
	}
	var recordBytes, oneRow int
	for _, r := range rows {
		s := col.NewStripe()
		s.Add(r, blockSize)
		oneRow = max(oneRow, library.RecordSize(nil, s.AppendFrame(nil)))
	}
	stripes := library.NewPaddedReader(data)
	b := col.NewBatch()
	n := 0
	for stripes.Next() {
		recordBytes += library.RecordSize(nil, stripes.Value())
		if err := col.DecodeBatchInto(b, stripes.Value(), nil); err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 || b.Len() > DefaultBatchSize {
			t.Fatalf("stripe of %d rows", b.Len())
		}
		for i := 0; i < b.Len(); i, n = i+1, n+1 {
			if got, want := col.AppendRowEncoded(nil, b, i), row.Encode(nil, rows[n]); !bytes.Equal(got, want) {
				t.Fatalf("row %d reads back as %x, want %x", n, got, want)
			}
		}
	}
	if stripes.Err() != nil || n != len(rows) {
		t.Fatalf("read %d of %d rows: %v", n, len(rows), stripes.Err())
	}
	blocks := (len(data) + blockSize - 1) / blockSize
	if pad := len(data) - recordBytes; pad >= (blocks-1)*oneRow {
		t.Fatalf("%d bytes of padding in %d blocks: stripes are not cut to the rest of their block (one row takes %d)", pad, blocks, oneRow)
	}
}

// TestScanReadsSplitInPlace: a scan reading one table split of k stripes
// through the DFS source input allocates the same bytes whatever k. The
// split is read as a view of its block and a warm batch decodes the read
// set in place, so a copy of the split, or of a stripe, shows here as
// bytes that grow with k.
func TestScanReadsSplitInPlace(t *testing.T) {
	const runs = 20
	perScan := func(k int) float64 {
		fs := tableFS(1 << 20)
		rows := make([]row.Row, k*DefaultBatchSize)
		for i := range rows {
			rows[i] = row.Row{row.Int(int64(i)), row.Float(float64(i) / 7), row.String(fmt.Sprint("s", i%100))}
		}
		tb := &Table{Name: "scan", Schema: row.NewSchema("a:int", "b:float", "c")}
		if err := WriteTable(fs, tb, 1, rows); err != nil {
			t.Fatal(err)
		}
		splits, err := fs.Splits(tb.Files[0], 0)
		if err != nil || len(splits) != 1 {
			t.Fatalf("table file of %d stripes: %d splits, %v; want one block", k, len(splits), err)
		}
		payload := plugin.MustEncode(library.SplitAssignment{Splits: splits})
		b := col.NewBatch()
		scan := func() {
			in := &library.DFSSourceInput{}
			ctx := &runtime.Context{Name: "scan", Services: runtime.Services{FS: fs, Node: "n0"}, Stop: make(chan struct{})}
			if err := in.Initialize(ctx); err != nil {
				t.Fatal(err)
			}
			if err := in.HandleEvent(event.RootInputDataInformation{Payload: payload}); err != nil {
				t.Fatal(err)
			}
			rd, err := in.Reader()
			if err != nil {
				t.Fatal(err)
			}
			kv := rd.(runtime.KVReader)
			stripes := 0
			for kv.Next() {
				if err := col.DecodeBatchInto(b, kv.Value(), []int{0}); err != nil {
					t.Fatal(err)
				}
				stripes++
			}
			if kv.Err() != nil || stripes != k {
				t.Fatalf("read %d of %d stripes: %v", stripes, k, kv.Err())
			}
		}
		scan() // warm the batch
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			scan()
		}
		goruntime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := perScan(2), perScan(16)
	if large-small > 1024 {
		t.Fatalf("a scan of 16 stripes allocates %.0f bytes, of 2 stripes %.0f: the split's bytes are copied", large, small)
	}
}

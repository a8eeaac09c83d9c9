package testutil

import (
	"bytes"
	"sort"
	"testing"

	"tez/internal/dfs"
	"tez/internal/library"
	"tez/internal/row"
)

// PartRows reads the rows of each part file committed under dir, a slice
// per file in name order, each in the order the file holds them.
func PartRows(t testing.TB, fs *dfs.FileSystem, dir string) [][]row.Row {
	t.Helper()
	files := fs.List(dir + "/part-")
	sort.Strings(files)
	parts := make([][]row.Row, len(files))
	for i, f := range files {
		data, err := fs.ReadFile(f, "")
		if err != nil {
			t.Fatal(err)
		}
		r := library.NewPaddedReader(data)
		for r.Next() {
			rr, err := row.Decode(r.Value())
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			parts[i] = append(parts[i], rr)
		}
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
	return parts
}

// PartsInKeyOrder fails the test unless every part file committed under
// dir holds its rows in ascending order of their leading column's key
// (row.EncodeKey), as a stored aggregate writes its groups.
func PartsInKeyOrder(t testing.TB, fs *dfs.FileSystem, dir string) {
	t.Helper()
	for p, rows := range PartRows(t, fs, dir) {
		for i := 1; i < len(rows); i++ {
			if bytes.Compare(row.EncodeKey(nil, rows[i-1][0]), row.EncodeKey(nil, rows[i][0])) > 0 {
				t.Fatalf("%s part %d: row %d %v follows %v out of key order", dir, p, i, rows[i], rows[i-1])
			}
		}
	}
}

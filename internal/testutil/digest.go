// Package testutil holds helpers the tests of several packages share.
package testutil

import (
	"crypto/sha256"
	"fmt"
	"path"
	"sort"
	"testing"

	"tez/internal/dfs"
)

// PartsDigest is the SHA-256 of the part files committed under dir, in
// name order: each file's base name and length, then its bytes. The test
// fails when there are none.
func PartsDigest(t testing.TB, fs *dfs.FileSystem, dir string) string {
	t.Helper()
	files := fs.List(dir + "/part-")
	sort.Strings(files)
	if len(files) == 0 {
		t.Fatalf("no part files under %s", dir)
	}
	digest := sha256.New()
	for _, f := range files {
		blob, err := fs.ReadFile(f, "")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(digest, "%s %d\n", path.Base(f), len(blob))
		digest.Write(blob)
	}
	return fmt.Sprintf("%x", digest.Sum(nil))
}

// FsckAtEnd checks, once the test and its deferred calls are done, that
// every block of fs still holds the bytes it was written with. Readers get
// blocks as read-only views (dfs.ReadAt), so one that wrote through a view
// fails the test here instead of corrupting the next reader.
func FsckAtEnd(t testing.TB, fs *dfs.FileSystem) {
	t.Helper()
	t.Cleanup(func() {
		if err := fs.Fsck(); err != nil {
			t.Error(err)
		}
	})
}

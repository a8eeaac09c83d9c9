package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"tez/internal/chaos"
)

func TestWriteReadRoundTrip(t *testing.T) {
	fs := New(Config{BlockSize: 64, Replication: 3})
	for i := 0; i < 6; i++ {
		fs.AddNode(fmt.Sprintf("n%d", i), fmt.Sprintf("r%d", i%2))
	}
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := fs.WriteFile("/a/b", "n0", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/a/b", "n0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: got %d bytes", len(got))
	}
	sz, err := fs.Size("/a/b")
	if err != nil || sz != 1000 {
		t.Fatalf("Size = %d, %v; want 1000", sz, err)
	}
}

func TestReadAtPartial(t *testing.T) {
	fs := New(Config{BlockSize: 16, Replication: 2})
	fs.AddNode("n0", "r0")
	fs.AddNode("n1", "r0")
	data := []byte("0123456789abcdefghijklmnopqrstuvwxyz")
	if err := fs.WriteFile("/f", "n0", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAt("/f", "n0", 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcdefghijkl" {
		t.Fatalf("ReadAt = %q", got)
	}
	// Read past EOF truncates.
	got, err = fs.ReadAt("/f", "n0", 30, 100)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "uvwxyz" {
		t.Fatalf("ReadAt tail = %q", got)
	}
}

func TestLocalReplicaPreferred(t *testing.T) {
	fs := New(Config{BlockSize: 64, Replication: 3})
	for i := 0; i < 6; i++ {
		fs.AddNode(fmt.Sprintf("n%d", i), fmt.Sprintf("r%d", i%3))
	}
	if err := fs.WriteFile("/f", "n3", make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	locs, err := fs.BlockLocations("/f")
	if err != nil {
		t.Fatal(err)
	}
	for bi, hosts := range locs {
		if len(hosts) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", bi, len(hosts))
		}
		if hosts[0] != "n3" {
			t.Fatalf("block %d first replica %q, want local n3", bi, hosts[0])
		}
	}
}

func TestReplicaSpreadAcrossRacks(t *testing.T) {
	fs := New(Config{BlockSize: 64, Replication: 3})
	for i := 0; i < 9; i++ {
		fs.AddNode(fmt.Sprintf("n%d", i), fmt.Sprintf("r%d", i%3))
	}
	if err := fs.WriteFile("/f", "n0", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	locs, _ := fs.BlockLocations("/f")
	racks := map[string]bool{}
	for _, h := range locs[0] {
		racks[fs.Rack(h)] = true
	}
	if len(racks) < 2 {
		t.Fatalf("replicas on %d racks, want >= 2", len(racks))
	}
}

func TestNodeFailureLosesBlocks(t *testing.T) {
	fs := New(Config{BlockSize: 64, Replication: 1})
	fs.AddNode("n0", "r0")
	fs.AddNode("n1", "r0")
	if err := fs.WriteFile("/f", "n0", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	fs.FailNode("n0")
	_, err := fs.ReadFile("/f", "n1")
	if !errors.Is(err, ErrBlockLost) {
		t.Fatalf("read after failure: err = %v, want ErrBlockLost", err)
	}
}

func TestNodeFailureSurvivesWithReplicas(t *testing.T) {
	fs := New(Config{BlockSize: 64, Replication: 3})
	for i := 0; i < 5; i++ {
		fs.AddNode(fmt.Sprintf("n%d", i), "r0")
	}
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i)
	}
	if err := fs.WriteFile("/f", "n0", data); err != nil {
		t.Fatal(err)
	}
	fs.FailNode("n0")
	got, err := fs.ReadFile("/f", "n1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after single node failure with replication 3")
	}
}

func TestSplitsCoverFileWithLocality(t *testing.T) {
	fs := New(Config{BlockSize: 32, Replication: 2})
	for i := 0; i < 4; i++ {
		fs.AddNode(fmt.Sprintf("n%d", i), "r0")
	}
	data := make([]byte, 200)
	if err := fs.WriteFile("/f", "n0", data); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.Splits("/f", 64)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range splits {
		total += s.Length
		if len(s.Hosts) == 0 {
			t.Fatal("split without locality hosts")
		}
		if s.Length > 64 {
			t.Fatalf("split length %d exceeds desired 64", s.Length)
		}
	}
	if total != 200 {
		t.Fatalf("splits cover %d bytes, want 200", total)
	}
	// Splits must tile the file: offsets contiguous.
	var off int64
	for _, s := range splits {
		if s.Offset != off {
			t.Fatalf("split offset %d, want %d", s.Offset, off)
		}
		off += s.Length
	}
}

func TestRenameAndDelete(t *testing.T) {
	fs := New(Config{})
	fs.AddNode("n0", "r0")
	if err := fs.WriteFile("/tmp/x", "n0", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/tmp/x", "/out/x"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/tmp/x") || !fs.Exists("/out/x") {
		t.Fatal("rename did not move file")
	}
	if err := fs.Rename("/missing", "/y"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rename missing: %v", err)
	}
	if err := fs.WriteFile("/tmp/y", "n0", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/tmp/y", "/out/x"); !errors.Is(err, ErrExists) {
		t.Fatalf("rename onto existing: %v", err)
	}
	fs.Delete("/out/x")
	if fs.Exists("/out/x") {
		t.Fatal("delete failed")
	}
}

func TestDeletePrefixAndList(t *testing.T) {
	fs := New(Config{})
	fs.AddNode("n0", "r0")
	for i := 0; i < 5; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/job/part-%d", i), "n0", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.WriteFile("/other/file", "n0", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := len(fs.List("/job/")); got != 5 {
		t.Fatalf("List = %d, want 5", got)
	}
	if n := fs.DeletePrefix("/job/"); n != 5 {
		t.Fatalf("DeletePrefix = %d, want 5", n)
	}
	if got := len(fs.List("/")); got != 1 {
		t.Fatalf("after delete, %d files remain, want 1", got)
	}
}

func TestCreateDuplicate(t *testing.T) {
	fs := New(Config{})
	fs.AddNode("n0", "r0")
	if err := fs.WriteFile("/f", "n0", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/f", "n0"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestCreateNoNodes(t *testing.T) {
	fs := New(Config{})
	if _, err := fs.Create("/f", ""); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("create with no nodes: %v", err)
	}
}

// Property: for any data and block size, write/read round-trips and the
// block math covers the file exactly.
func TestQuickRoundTripAndBlockMath(t *testing.T) {
	f := func(seed int64, n uint16, bsRaw uint8) bool {
		bs := int64(bsRaw%100) + 1
		fs := New(Config{BlockSize: bs, Replication: 2})
		fs.AddNode("n0", "r0")
		fs.AddNode("n1", "r1")
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, int(n)%3000)
		rng.Read(data)
		if err := fs.WriteFile("/f", "n0", data); err != nil {
			return false
		}
		got, err := fs.ReadFile("/f", "n1")
		if err != nil {
			return false
		}
		if !bytes.Equal(got, data) {
			return false
		}
		locs, _ := fs.BlockLocations("/f")
		wantBlocks := (int64(len(data)) + bs - 1) / bs
		return int64(len(locs)) == wantBlocks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: splits always tile the file regardless of desired split size.
func TestQuickSplitsTile(t *testing.T) {
	f := func(n uint16, bsRaw, dsRaw uint8) bool {
		bs := int64(bsRaw%50) + 1
		ds := int64(dsRaw % 200) // 0 allowed: defaults to block size
		fs := New(Config{BlockSize: bs, Replication: 1})
		fs.AddNode("n0", "r0")
		size := int(n) % 2000
		if err := fs.WriteFile("/f", "n0", make([]byte, size)); err != nil {
			return false
		}
		splits, err := fs.Splits("/f", ds)
		if err != nil {
			return false
		}
		var off int64
		for _, s := range splits {
			if s.Offset != off {
				return false
			}
			off += s.Length
		}
		return off == int64(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// viewFS holds one 50-byte file /f, three full 16-byte blocks and a
// 2-byte fourth, on node n0, alongside node n1.
func viewFS(t *testing.T, cfg Config) (*FileSystem, []byte) {
	t.Helper()
	cfg.BlockSize, cfg.Replication = 16, 1
	fs := New(cfg)
	fs.AddNode("n0", "r0")
	fs.AddNode("n1", "r0")
	data := []byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN")
	if err := fs.WriteFile("/f", "n0", data); err != nil {
		t.Fatal(err)
	}
	return fs, data
}

// TestReadAtNegativeLength: a negative length is refused with an error,
// as an out-of-range offset is, not a panic in make.
func TestReadAtNegativeLength(t *testing.T) {
	fs, _ := viewFS(t, Config{})
	before := fs.BytesRead()
	got, err := fs.ReadAt("/f", "n0", 4, -2)
	if err == nil || got != nil {
		t.Fatalf("ReadAt length -2 = %q, %v; want an error", got, err)
	}
	if fs.BytesRead() != before {
		t.Fatalf("a refused read counted %d bytes", fs.BytesRead()-before)
	}
}

// TestReadAtInsideBlockIsView: a range inside one block is the block's
// own bytes, capacity cut to length so an append cannot reach the block,
// and reading it allocates nothing.
func TestReadAtInsideBlockIsView(t *testing.T) {
	fs, data := viewFS(t, Config{})
	blk := fs.files["/f"].blocks[1].data
	for _, r := range []struct{ off, n int64 }{{16, 16}, {18, 5}, {31, 1}} {
		got, err := fs.ReadAt("/f", "n0", r.off, r.n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[r.off:r.off+r.n]) {
			t.Fatalf("ReadAt(%d, %d) = %q", r.off, r.n, got)
		}
		if &got[0] != &blk[r.off-16] {
			t.Fatalf("ReadAt(%d, %d) is a copy, want a view of block 1", r.off, r.n)
		}
		if cap(got) != len(got) {
			t.Fatalf("ReadAt(%d, %d): cap %d, len %d; an append would write into the block", r.off, r.n, cap(got), len(got))
		}
		_ = append(got, '!')
	}
	if err := fs.Fsck(); err != nil {
		t.Fatalf("append to a view reached the block: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := fs.ReadAt("/f", "n1", 20, 10); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a read inside one block allocates %.1f times, want 0", allocs)
	}
}

// TestReadAtAcrossBlocksCopies: a range spanning blocks is assembled in a
// fresh buffer with the file's bytes, and writing to it leaves the file
// as it was.
func TestReadAtAcrossBlocksCopies(t *testing.T) {
	fs, data := viewFS(t, Config{})
	for _, r := range []struct{ off, n int64 }{{0, 50}, {10, 12}, {15, 2}, {30, 100}} {
		got, err := fs.ReadAt("/f", "n0", r.off, r.n)
		if err != nil {
			t.Fatal(err)
		}
		want := data[r.off:min(r.off+r.n, int64(len(data)))]
		if !bytes.Equal(got, want) {
			t.Fatalf("ReadAt(%d, %d) = %q, want %q", r.off, r.n, got, want)
		}
		for i := range got {
			got[i] = '#'
		}
	}
	if err := fs.Fsck(); err != nil {
		t.Fatalf("a write to a multi-block read reached a block: %v", err)
	}
	if got, _ := fs.ReadFile("/f", ""); !bytes.Equal(got, data) {
		t.Fatalf("file reads %q after writes to copies", got)
	}
}

// TestReadAtAccountingOnBothPaths: BytesRead and the remote-read delay
// count a view and a copy alike, and a lost block or an injected fault
// fails the read before any bytes are returned or counted.
func TestReadAtAccountingOnBothPaths(t *testing.T) {
	fs, _ := viewFS(t, Config{})
	for _, r := range []struct{ off, n int64 }{{16, 12}, {10, 12}} {
		before := fs.BytesRead()
		if _, err := fs.ReadAt("/f", "n0", r.off, r.n); err != nil {
			t.Fatal(err)
		}
		if d := fs.BytesRead() - before; d != r.n {
			t.Fatalf("ReadAt(%d, %d) counted %d bytes", r.off, r.n, d)
		}
	}

	lost, _ := viewFS(t, Config{})
	lost.FailNode("n0")
	faulty, _ := viewFS(t, Config{Chaos: chaos.New(1, chaos.Spec{DFSReadFaultProb: 1})})
	for name, c := range map[string]struct {
		fs   *FileSystem
		want error
	}{"lost block": {lost, ErrBlockLost}, "injected fault": {faulty, ErrReadFault}} {
		for _, r := range []struct{ off, n int64 }{{16, 12}, {10, 12}} {
			got, err := c.fs.ReadAt("/f", "n1", r.off, r.n)
			if !errors.Is(err, c.want) || got != nil {
				t.Fatalf("%s: ReadAt(%d, %d) = %q, %v; want no bytes and %v", name, r.off, r.n, got, err, c.want)
			}
		}
		if c.fs.BytesRead() != 0 {
			t.Fatalf("%s: failed reads counted %d bytes", name, c.fs.BytesRead())
		}
	}
}

// TestFsckReportsWriteThroughView: a byte written through a view
// corrupts the block itself, and Fsck names that file and block and no
// other.
func TestFsckReportsWriteThroughView(t *testing.T) {
	fs, _ := viewFS(t, Config{})
	if err := fs.WriteFile("/g", "n1", []byte("untouched")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Fsck(); err != nil {
		t.Fatalf("fresh filesystem: %v", err)
	}
	view, err := fs.ReadAt("/f", "n0", 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	view[1] ^= 0xFF
	err = fs.Fsck()
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "/f block 1") {
		t.Fatalf("Fsck after a write through a view: %v; want ErrCorrupt naming /f block 1", err)
	}
	if strings.Contains(err.Error(), "block 0") || strings.Contains(err.Error(), "block 2") || strings.Contains(err.Error(), "/g") {
		t.Fatalf("Fsck names blocks nobody wrote: %v", err)
	}
}

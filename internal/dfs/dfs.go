// Package dfs implements an in-memory distributed filesystem that stands in
// for HDFS in this reproduction of Apache Tez (SIGMOD 2015).
//
// It models the properties Tez actually depends on:
//
//   - files are split into fixed-size blocks, each replicated on several
//     nodes, so that split calculation can produce locality hints;
//   - writes pay a configurable replication/transfer cost so that engines
//     which materialise intermediate data between jobs (the classic
//     MapReduce baseline) pay for it, while Tez DAGs that stream through the
//     shuffle service do not;
//   - node failures invalidate replicas; a block with no live replica is
//     lost and reads report it, which drives the fault-tolerance paths.
//
// Blocks are write-once, as in HDFS: a Writer copies each block in when
// it fills and nothing writes to it after. A read whose range lies inside
// one block returns a view of that block, not a copy, so every byte a read
// returns is read-only to its caller and to everything the caller hands it
// to. Each block records its CRC32C when written, and Fsck re-checks them:
// a caller that wrote through a view shows there, not in the next reader.
//
// The filesystem is safe for concurrent use.
package dfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"tez/internal/chaos"
)

// Config controls block geometry and the write cost model.
type Config struct {
	// BlockSize is the maximum number of bytes per block. Defaults to 4 KiB
	// (scaled down from HDFS's 128 MiB so that laptop-scale inputs still
	// span multiple blocks and exercise locality).
	BlockSize int64
	// Replication is the number of replicas per block. Defaults to 3,
	// capped at the number of live nodes.
	Replication int
	// WriteDelayPerBlock simulates the fixed cost of a block write pipeline
	// (one per block per replica beyond the first is NOT charged separately;
	// the pipeline is charged once per block).
	WriteDelayPerBlock time.Duration
	// WriteDelayPerByte simulates per-byte replication cost across the
	// write pipeline. The delay charged for a block is
	// WriteDelayPerBlock + len(block)*Replication*WriteDelayPerByte.
	WriteDelayPerByte time.Duration
	// ReadDelayPerByteRemote simulates per-byte cost of a non-local read.
	// Local reads are free.
	ReadDelayPerByteRemote time.Duration
	// Chaos, when set, injects transient read faults into reads issued
	// from a task node (nil means no injection).
	Chaos *chaos.Plane
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 4 * 1024
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	return c
}

// Errors reported by the filesystem.
var (
	ErrNotFound  = errors.New("dfs: file not found")
	ErrExists    = errors.New("dfs: file already exists")
	ErrBlockLost = errors.New("dfs: block lost (no live replica)")
	ErrNoNodes   = errors.New("dfs: no live nodes")
	// ErrReadFault is a transient, injected read failure: the data is
	// intact and a retry (normally a fresh task attempt) will succeed.
	ErrReadFault = errors.New("dfs: transient read fault")
	// ErrCorrupt reports a block whose bytes no longer match the checksum
	// taken when it was written.
	ErrCorrupt = errors.New("dfs: block checksum mismatch")
)

// castagnoli is the CRC32C table block checksums use, as HDFS's do.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FileSystem is the in-memory DFS namespace plus block store.
type FileSystem struct {
	cfg Config

	mu    sync.Mutex
	rng   *rand.Rand // replica placement, seeded alike in every filesystem
	files map[string]*file
	nodes map[string]*nodeInfo // node id -> info

	bytesWritten int64
	bytesRead    int64
}

type nodeInfo struct {
	rack string
	live bool
}

type file struct {
	blocks []*block
	size   int64
}

type block struct {
	data     []byte // written once, by flushBlock; read-only after
	crc      uint32 // CRC32C of data, taken by flushBlock
	replicas []string
}

// New creates an empty filesystem with the given config.
func New(cfg Config) *FileSystem {
	cfg = cfg.withDefaults()
	return &FileSystem{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(1)),
		files: make(map[string]*file),
		nodes: make(map[string]*nodeInfo),
	}
}

// AddNode registers a datanode with its rack. Adding an existing node marks
// it live again (re-commissioning); its previous replicas are not restored.
func (fs *FileSystem) AddNode(id, rack string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if n, ok := fs.nodes[id]; ok {
		n.live = true
		n.rack = rack
		return
	}
	fs.nodes[id] = &nodeInfo{rack: rack, live: true}
}

// FailNode marks a node dead and drops its replicas. Blocks whose last
// replica lived there become lost and will fail reads.
func (fs *FileSystem) FailNode(id string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.nodes[id]
	if !ok {
		return
	}
	n.live = false
	for _, f := range fs.files {
		for _, b := range f.blocks {
			b.replicas = removeString(b.replicas, id)
		}
	}
}

// BlockSize returns the configured block size.
func (fs *FileSystem) BlockSize() int64 { return fs.cfg.BlockSize }

// LiveNodes returns the sorted ids of live datanodes.
func (fs *FileSystem) LiveNodes() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for id, n := range fs.nodes {
		if n.live {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Rack returns the rack of a node ("" if unknown).
func (fs *FileSystem) Rack(node string) string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if n, ok := fs.nodes[node]; ok {
		return n.rack
	}
	return ""
}

// BytesWritten reports total logical bytes written (excludes replication).
func (fs *FileSystem) BytesWritten() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.bytesWritten
}

// BytesRead reports total logical bytes read.
func (fs *FileSystem) BytesRead() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.bytesRead
}

// Exists reports whether path names a file.
func (fs *FileSystem) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	return ok
}

// Size returns the length of the file at path.
func (fs *FileSystem) Size(path string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return f.size, nil
}

// List returns the paths under the given prefix, sorted.
func (fs *FileSystem) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Delete removes a file. Deleting a missing file is not an error.
func (fs *FileSystem) Delete(path string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.files, path)
}

// DeletePrefix removes every file under prefix and returns how many.
func (fs *FileSystem) DeletePrefix(prefix string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := 0
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			delete(fs.files, p)
			n++
		}
	}
	return n
}

// Rename moves a file to a new path (used by output committers to make
// output visible atomically).
func (fs *FileSystem) Rename(from, to string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[from]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, from)
	}
	if _, ok := fs.files[to]; ok {
		return fmt.Errorf("%w: %s", ErrExists, to)
	}
	delete(fs.files, from)
	fs.files[to] = f
	return nil
}

// Create opens a new file for writing. localNode, if non-empty and live, is
// preferred as the first replica of every block (the writer's node, as in
// HDFS). The returned writer buffers into blocks and charges the write cost
// model; Close finalises the file.
func (fs *FileSystem) Create(path, localNode string) (*Writer, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, path)
	}
	if fs.countLiveLocked() == 0 {
		return nil, ErrNoNodes
	}
	// Reserve the name immediately so concurrent creators collide.
	f := &file{}
	fs.files[path] = f
	return &Writer{fs: fs, f: f, path: path, local: localNode}, nil
}

// WriteFile writes data as a whole file.
func (fs *FileSystem) WriteFile(path, localNode string, data []byte) error {
	w, err := fs.Create(path, localNode)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

// ReadFile reads the whole file, charging remote-read cost against
// localNode ("" means fully remote). The bytes are read-only, as ReadAt's.
func (fs *FileSystem) ReadFile(path, localNode string) ([]byte, error) {
	sz, err := fs.Size(path)
	if err != nil {
		return nil, err
	}
	return fs.ReadAt(path, localNode, 0, sz)
}

// ReadAt reads length bytes at offset. Reads spanning lost blocks return
// ErrBlockLost. Remote bytes (no replica on localNode) pay the read cost.
//
// A range inside one block is returned in place: the slice is a view of
// the block, its capacity cut to its length so that an append reallocates.
// Only a range spanning blocks is copied into a fresh buffer. Either way
// the caller must treat the bytes as read-only.
func (fs *FileSystem) ReadAt(path, localNode string, offset, length int64) ([]byte, error) {
	out, delay, err := fs.ReadAtNoWait(path, localNode, offset, length)
	if delay > 0 {
		time.Sleep(delay)
	}
	return out, err
}

// ReadAtNoWait is ReadAt with the read cost returned instead of slept, as
// shuffle.Service.FetchNoWait returns a fetch's: a reader of many small
// ranges adds the delays up and sleeps them in coarse chunks, since a
// sub-millisecond sleep costs the OS timer's granularity instead.
func (fs *FileSystem) ReadAtNoWait(path, localNode string, offset, length int64) ([]byte, time.Duration, error) {
	// Chaos only targets reads issued from a task's node; control-plane
	// and verification reads pass localNode == "" and are never injected.
	if localNode != "" && fs.cfg.Chaos.DFSReadFault(path, localNode) {
		return nil, 0, fmt.Errorf("%w: %s from %s (injected)", ErrReadFault, path, localNode)
	}
	fs.mu.Lock()
	f, ok := fs.files[path]
	if !ok {
		fs.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if offset < 0 || offset > f.size {
		fs.mu.Unlock()
		return nil, 0, fmt.Errorf("dfs: offset %d out of range for %s (size %d)", offset, path, f.size)
	}
	if length < 0 {
		fs.mu.Unlock()
		return nil, 0, fmt.Errorf("dfs: negative length %d reading %s", length, path)
	}
	length = min(length, f.size-offset)
	var out []byte
	var remote int64
	bs := fs.cfg.BlockSize
	for pos, end := offset, offset+length; pos < end; {
		bi := pos / bs
		bo := pos % bs
		b := f.blocks[bi]
		if len(b.replicas) == 0 {
			fs.mu.Unlock()
			return nil, 0, fmt.Errorf("%w: %s block %d", ErrBlockLost, path, bi)
		}
		n := min(int64(len(b.data))-bo, end-pos)
		if n == length { // the whole range lies in this block
			out = b.data[bo : bo+n : bo+n]
		} else {
			if out == nil {
				out = make([]byte, 0, length)
			}
			out = append(out, b.data[bo:bo+n]...)
		}
		if localNode == "" || !containsString(b.replicas, localNode) {
			remote += n
		}
		pos += n
	}
	fs.bytesRead += length
	delay := time.Duration(remote) * fs.cfg.ReadDelayPerByteRemote
	fs.mu.Unlock()
	return out, delay, nil
}

// Fsck re-checks every block of every file in the namespace against the
// CRC32C taken when it was written. It returns nil when all match, else
// an ErrCorrupt naming each bad file and block: since blocks are
// write-once, a mismatch means some reader wrote through a view.
func (fs *FileSystem) Fsck() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	paths := make([]string, 0, len(fs.files))
	for p := range fs.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var bad []string
	for _, p := range paths {
		for bi, b := range fs.files[p].blocks {
			if crc32.Checksum(b.data, castagnoli) != b.crc {
				bad = append(bad, fmt.Sprintf("%s block %d", p, bi))
			}
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrCorrupt, strings.Join(bad, ", "))
}

// Split describes a shard of a file together with the nodes holding it, the
// unit of work handed to a root input task ("split calculation" in
// MapReduce/Tez parlance).
type Split struct {
	Path   string
	Offset int64
	Length int64
	Hosts  []string
}

// Splits computes splits of roughly desiredSize bytes, aligned to block
// boundaries, each annotated with the hosts of its first block.
func (fs *FileSystem) Splits(path string, desiredSize int64) ([]Split, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if desiredSize <= 0 {
		desiredSize = fs.cfg.BlockSize
	}
	// Round the split size up to a whole number of blocks.
	bs := fs.cfg.BlockSize
	blocksPerSplit := (desiredSize + bs - 1) / bs
	if blocksPerSplit < 1 {
		blocksPerSplit = 1
	}
	var splits []Split
	for bi := int64(0); bi < int64(len(f.blocks)); bi += blocksPerSplit {
		end := bi + blocksPerSplit
		if end > int64(len(f.blocks)) {
			end = int64(len(f.blocks))
		}
		var length int64
		for _, b := range f.blocks[bi:end] {
			length += int64(len(b.data))
		}
		hosts := append([]string(nil), f.blocks[bi].replicas...)
		sort.Strings(hosts)
		splits = append(splits, Split{
			Path:   path,
			Offset: bi * bs,
			Length: length,
			Hosts:  hosts,
		})
	}
	return splits, nil
}

// BlockLocations returns replica hosts per block (testing/inspection).
func (fs *FileSystem) BlockLocations(path string) ([][]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	out := make([][]string, len(f.blocks))
	for i, b := range f.blocks {
		out[i] = append([]string(nil), b.replicas...)
	}
	return out, nil
}

func (fs *FileSystem) countLiveLocked() int {
	n := 0
	for _, ni := range fs.nodes {
		if ni.live {
			n++
		}
	}
	return n
}

// placeReplicasLocked picks replica nodes for a new block: the local node
// first when live, then distinct random live nodes, preferring to spread
// across racks like the HDFS default placement policy.
func (fs *FileSystem) placeReplicasLocked(local string) []string {
	type cand struct {
		id   string
		rack string
	}
	var live []cand
	for id, ni := range fs.nodes {
		if ni.live {
			live = append(live, cand{id, ni.rack})
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	want := fs.cfg.Replication
	if want > len(live) {
		want = len(live)
	}
	var chosen []string
	usedNode := map[string]bool{}
	usedRack := map[string]bool{}
	pick := func(c cand) {
		chosen = append(chosen, c.id)
		usedNode[c.id] = true
		usedRack[c.rack] = true
	}
	if local != "" {
		for _, c := range live {
			if c.id == local {
				pick(c)
				break
			}
		}
	}
	// Prefer unused racks, then anything unused.
	for len(chosen) < want {
		perm := fs.rng.Perm(len(live))
		found := false
		for _, i := range perm {
			c := live[i]
			if !usedNode[c.id] && !usedRack[c.rack] {
				pick(c)
				found = true
				break
			}
		}
		if !found {
			for _, i := range perm {
				c := live[i]
				if !usedNode[c.id] {
					pick(c)
					found = true
					break
				}
			}
		}
		if !found {
			break
		}
	}
	return chosen
}

// Writer streams data into a file, cutting blocks at BlockSize.
type Writer struct {
	fs     *FileSystem
	f      *file
	path   string
	local  string
	buf    []byte
	closed bool
}

// Write buffers p, flushing whole blocks as they fill.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("dfs: write to closed writer for %s", w.path)
	}
	w.buf = append(w.buf, p...)
	bs := w.fs.cfg.BlockSize
	for int64(len(w.buf)) >= bs {
		w.flushBlock(w.buf[:bs])
		w.buf = w.buf[bs:]
	}
	return len(p), nil
}

func (w *Writer) flushBlock(data []byte) {
	b := &block{data: append([]byte(nil), data...)}
	b.crc = crc32.Checksum(b.data, castagnoli)
	w.fs.mu.Lock()
	b.replicas = w.fs.placeReplicasLocked(w.local)
	w.f.blocks = append(w.f.blocks, b)
	w.f.size += int64(len(b.data))
	w.fs.bytesWritten += int64(len(b.data))
	cfg := w.fs.cfg
	w.fs.mu.Unlock()
	delay := cfg.WriteDelayPerBlock +
		time.Duration(int64(len(data))*int64(cfg.Replication))*cfg.WriteDelayPerByte
	if delay > 0 {
		time.Sleep(delay)
	}
}

// Close flushes the trailing partial block and finalises the file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.buf) > 0 {
		w.flushBlock(w.buf)
		w.buf = nil
	}
	return nil
}

var _ io.WriteCloser = (*Writer)(nil)

func containsString(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func removeString(s []string, v string) []string {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

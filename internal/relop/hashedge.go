package relop

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"

	"tez/internal/col"
	"tez/internal/metrics"
	"tez/internal/runtime"
)

// The one aggregate fold (DESIGN §13, "One fold"): every aggregate, fed
// by a hash edge (DESIGN §13, "Which edge a shuffle takes"), by sorted
// groups or by a producer's rows (partial.go), folds each row into its
// group's states found by the group's encoded key, and writes the groups
// sorted by that key where an emit observes order, else first seen first.

// hashInput is one InHash input: its reader and the key expressions its
// rows were partitioned by.
type hashInput struct {
	kv   runtime.KVReader
	keys []*Expr
}

// hashFold folds rows into per-group aggregate states, found by the
// group's encoded key, in whatever order the rows arrive. Rows come a
// frame at a time (addInputs: an agg stage's [group..., args...] rows), a
// sorted group at a time (addGroup: its encoded rows; addJoin: a fused
// join's product), or as a hash join's product rows (writeProduct); a
// fused join's are projected by AggInput when their batch flushes. emit
// writes the groups, in key order when an emitter observes order. A fold
// is reused from task to task (hashFolds): its index, states and batches
// keep their storage.
type hashFold struct {
	g     *GroupOp
	size  int
	needs []aggNeed
	// t's key index numbers the groups; a fused join's build side is
	// chained on it, so a build key's id is its group's.
	t joinTable
	// first[i] is the row of vals holding group i's key columns, copied
	// from its first folded row; -1 before that (a join's build creates
	// groups no product may reach).
	first  []int32
	vals   *col.Batch
	states []aggState // group i's at [i*len(g.Aggs), (i+1)*len(g.Aggs))
	// Rows waiting to fold, and their groups: a sorted input's, or a
	// join's product.
	in   *col.Batch
	gids []int32
	vecs []col.Vector
	// A producer's pre-aggregation (partial.go): a batch's rows ordered
	// group by group, and the partial rows waiting to be written.
	slots  []int32 // by group: its rows in the batch, then its next slot
	seen   []int32 // the batch's groups, first seen first
	perm   []int32 // the batch's rows, group by group
	sorted []int32 // their groups
	out    *col.Batch
	state  []byte // a partial state being encoded
	// Scratch.
	b       *col.Batch
	rowIDs  []int32
	keyVecs []col.Vector
	keyBuf  []byte
	prevKey []byte
	order   []sortKey
}

// hashFolds recycles folds across the tasks a container runs.
var hashFolds = sync.Pool{New: func() any {
	return &hashFold{t: *newJoinTable(),
		vals: col.NewBatch(), in: col.NewBatch(), out: col.NewBatch(), b: col.NewBatch()}
}}

// getHashFold returns an empty fold of g's aggregates that batches the
// rows it does not fold at once by size rows.
func getHashFold(g *GroupOp, size int) (*hashFold, error) {
	f := hashFolds.Get().(*hashFold)
	f.g, f.size = g, size
	f.needs = f.needs[:0]
	for _, a := range g.Aggs {
		need, ok := aggNeeds[a.Func]
		if !ok {
			hashFolds.Put(f)
			return nil, fmt.Errorf("relop: unknown aggregate %q", a.Func)
		}
		f.needs = append(f.needs, need)
	}
	f.reset()
	f.in.Reset()
	f.out.Reset()
	return f, nil
}

// reset empties the fold's groups, keeping their storage.
func (f *hashFold) reset() {
	f.t.reset()
	f.first, f.states, f.gids = f.first[:0], f.states[:0], f.gids[:0]
	f.vals.Reset()
	f.vals.EnsureWidth(f.g.GroupWidth)
}

// group returns the group of an encoded key, adding it if new.
func (f *hashFold) group(key []byte) int32 {
	id := f.t.keys.add(key)
	if int(id) == len(f.first) {
		f.first = append(f.first, -1)
		n, na := len(f.states), len(f.g.Aggs)
		f.states = slices.Grow(f.states, na)[:n+na]
		for i := n; i < n+na; i++ {
			f.states[i].reset()
		}
	}
	return id
}

// groupRows returns the group of each of b's live rows keyed by keys,
// adding the groups of new keys when add is set and giving them -1 when
// it is not.
func (f *hashFold) groupRows(b *col.Batch, keys []*Expr, add bool) []int32 {
	f.keyVecs = evalKeys(f.keyVecs[:0], keys, b)
	return f.groupLive(b, 0, add, -1)
}

// groupLive returns the group of each of b's live rows from the from-th
// on, keyed by f.keyVecs; with add and a limit ≥ 0 it stops before a row
// that would add group number limit. Consecutive rows with equal keys
// look their group up once.
func (f *hashFold) groupLive(b *col.Batch, from int, add bool, limit int) []int32 {
	f.rowIDs = f.rowIDs[:0]
	id := int32(-1)
	for k := from; k < b.Live(); k++ {
		f.keyBuf = appendKey(f.keyBuf[:0], f.keyVecs, b.RowAt(k), nil)
		if k == from || !bytes.Equal(f.keyBuf, f.prevKey) {
			switch {
			case !add:
				id = f.t.keys.find(f.keyBuf)
			case limit >= 0 && len(f.first) >= limit && f.t.keys.find(f.keyBuf) < 0:
				return f.rowIDs
			default:
				id = f.group(f.keyBuf)
			}
			f.keyBuf, f.prevKey = f.prevKey, f.keyBuf
		}
		f.rowIDs = append(f.rowIDs, id)
	}
	return f.rowIDs
}

// addInputs folds every frame of an agg stage's inputs, keyed by each
// input's keys.
func (f *hashFold) addInputs(ins []hashInput) error {
	for _, in := range ins {
		for in.kv.Next() {
			if len(in.kv.Key()) != 0 {
				return fmt.Errorf("relop: aggregate frame keyed %x", in.kv.Key())
			}
			if err := col.DecodeBatchInto(f.b, in.kv.Value(), nil); err != nil {
				return err
			}
			if err := f.fold(f.b, f.groupRows(f.b, in.keys, true)); err != nil {
				return err
			}
		}
		if err := in.kv.Err(); err != nil {
			return err
		}
	}
	return nil
}

// open returns the group of a grouped input's next key. Keys arrive in
// order, so a table that holds partialGroupCap groups is first written
// out to ems and emptied: an agg stage's groups still go out in key
// order, sorted or not, and a task holds at most that many.
func (f *hashFold) open(ems []*vecEmitter, key []byte) (int32, error) {
	if len(f.first) >= partialGroupCap {
		if err := f.emit(ems); err != nil {
			return 0, err
		}
	}
	return f.group(key), nil
}

// addGroup folds one group of an agg stage's grouped input: its encoded
// rows, parsed into the batch, which flushes on a width change and when
// full.
func (f *hashFold) addGroup(ems []*vecEmitter, key []byte, values [][]byte) error {
	id, err := f.open(ems, key)
	if err != nil {
		return err
	}
	for _, v := range values {
		ok, err := f.in.AppendEncoded(v)
		if err == nil && !ok {
			if err = f.flush(); err == nil {
				_, err = f.in.AppendEncoded(v) // an empty batch takes any width
			}
		}
		if err != nil {
			return err
		}
		if err := f.added(id); err != nil {
			return err
		}
	}
	return nil
}

// addJoin folds one group of a fused join's grouped inputs: j splits its
// tagged values into side segments, and their product folds into the
// group of key. An inner join's group with an empty side adds nothing.
func (f *hashFold) addJoin(ems []*vecEmitter, key []byte, j *joinGroups, values [][]byte) error {
	if ok, err := j.split(key, values); !ok || err != nil {
		return err
	}
	id, err := f.open(ems, key)
	if err != nil {
		return err
	}
	return j.eachPair(func(a *col.Batch, ai int, b *col.Batch, bi int) error {
		return f.writeProduct(id, a, ai, b, bi)
	})
}

// fold folds b's rows, dense, into their groups gids[i]: each run of rows
// of one group at once, through foldChunk.
func (f *hashFold) fold(b *col.Batch, gids []int32) error {
	gw, na := f.g.GroupWidth, len(f.g.Aggs)
	if len(gids) > 0 && b.Width() < gw {
		return fmt.Errorf("relop: %d-column row under a %d-column group key", b.Width(), gw)
	}
	for lo := 0; lo < len(gids); {
		id := gids[lo]
		hi := lo + 1
		for hi < len(gids) && gids[hi] == id {
			hi++
		}
		if f.first[id] < 0 {
			r := f.vals.Len()
			for c := 0; c < gw; c++ {
				f.vals.Col(c).AppendFrom(b.Col(c), lo)
			}
			f.vals.SetRowCount(r + 1)
			f.first[id] = int32(r)
		}
		if err := foldChunk(f.g, f.states[int(id)*na:int(id+1)*na], b, lo, hi, f.needs); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// join reads a fused join's two sides: side 0's frames build the fold's
// join table, whose key ids are the fold's groups, and side 1's rows
// probe it frame by frame. Each match folds as one product row, side 0's
// columns first, as joinGroups writes it.
func (f *hashFold) join(ins []hashInput, counters *metrics.Counters) error {
	var sides [2][]keyedFrame
	for _, in := range ins {
		for in.kv.Next() {
			tag := in.kv.Key()
			if len(tag) != 1 || tag[0] > 1 {
				return fmt.Errorf("relop: join frame tagged %x", tag)
			}
			sides[tag[0]] = append(sides[tag[0]], keyedFrame{in.kv.Value(), in.keys})
		}
		if err := in.kv.Err(); err != nil {
			return err
		}
	}
	if err := f.t.build(sides[0], f.group, counters); err != nil {
		return err
	}
	pb := f.b
	for _, fr := range sides[1] {
		if err := col.DecodeBatchInto(pb, fr.data, nil); err != nil {
			return err
		}
		for i, id := range f.groupRows(pb, fr.keys, false) {
			if id < 0 {
				continue
			}
			for r := f.t.head[id]; r >= 0; r = f.t.rows[r].next {
				br := f.t.rows[r]
				if err := f.writeProduct(id, f.t.batches[br.batch], int(br.row), pb, i); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// writeProduct appends the product of build row bi of bb and probe row
// pi of pb to the batch waiting to fold into group id, flushing first on a
// width change and after it when full.
func (f *hashFold) writeProduct(id int32, bb *col.Batch, bi int, pb *col.Batch, pi int) error {
	w := bb.Width() + pb.Width()
	if f.in.Len() > 0 && f.in.Width() != w {
		if err := f.flush(); err != nil {
			return err
		}
	}
	f.in.EnsureWidth(w)
	appendPair(f.in, bb, bi, pb, pi)
	f.in.SetRowCount(f.in.Len() + 1)
	return f.added(id)
}

// added records the row just appended to the batch as group id's and
// flushes a full batch.
func (f *hashFold) added(id int32) error {
	f.gids = append(f.gids, id)
	if f.in.Len() >= f.size {
		return f.flush()
	}
	return nil
}

// flush folds the waiting rows, a join's product projected by AggInput
// first.
func (f *hashFold) flush() error {
	n := f.in.Len()
	if n == 0 {
		return nil
	}
	b := f.in
	if f.g.AggInput != nil {
		f.vecs = f.vecs[:0]
		for _, e := range f.g.AggInput {
			f.vecs = append(f.vecs, evalVec(e, f.in))
		}
		b = col.FromVectors(n, nil, f.vecs)
	}
	err := f.fold(b, f.gids)
	f.in.Reset()
	f.gids = f.gids[:0]
	return err
}

// sortKey orders a group by its key: first by the key's first 8 bytes,
// big-endian and zero-padded, then by the whole key.
type sortKey struct {
	prefix uint64
	id     int32
}

// emit folds the waiting rows, writes every group that folded a row and
// empties the table. The groups go out in encoded key order when one of
// ems observes order (observesOrder), else in table order: first seen
// first.
func (f *hashFold) emit(ems []*vecEmitter) error {
	if err := f.flush(); err != nil {
		return err
	}
	sorted := slices.ContainsFunc(ems, func(em *vecEmitter) bool { return observesOrder(em.spec.Kind) })
	f.order = f.order[:0]
	for id, r := range f.first {
		if r >= 0 {
			var p [8]byte
			if sorted {
				copy(p[:], f.t.keys.key(int32(id)))
			}
			f.order = append(f.order, sortKey{binary.BigEndian.Uint64(p[:]), int32(id)})
		}
	}
	if sorted {
		slices.SortFunc(f.order, func(a, b sortKey) int {
			if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
				return c
			}
			return bytes.Compare(f.t.keys.key(a.id), f.t.keys.key(b.id))
		})
	}
	na := len(f.g.Aggs)
	for _, k := range f.order {
		id := int(k.id)
		if err := writeAggRow(ems, f.g, f.vals, int(f.first[id]), f.states[id*na:(id+1)*na]); err != nil {
			return err
		}
	}
	f.reset()
	return nil
}

// keyIndex numbers the distinct encoded keys it is given densely, in the
// order first seen. The keys lie back to back in one arena, found through
// an open-addressing table of ids, so a warm index adds a key without
// allocating: a pooled map[string]int32 in its place allocates a string
// per group, and cost hive-joinagg's q18 (20 000 groups a job) 10 % more
// time and 0.9 MB more allocation per job (BenchmarkHiveSession, 2 Xeon
// cores).
type keyIndex struct {
	seed  maphash.Seed
	arena []byte
	ends  []int   // key i is arena[ends[i-1]:ends[i]] (from 0 for key 0)
	slots []int32 // id+1 of the key placed there, 0 when free; a power of two long
}

func (x *keyIndex) reset() {
	x.arena, x.ends = x.arena[:0], x.ends[:0]
	clear(x.slots)
}

// key returns key id's bytes.
func (x *keyIndex) key(id int32) []byte {
	start := 0
	if id > 0 {
		start = x.ends[id-1]
	}
	return x.arena[start:x.ends[id]]
}

// slot returns the slot holding key, or the free slot where it belongs.
func (x *keyIndex) slot(key []byte) int {
	mask := len(x.slots) - 1
	i := int(maphash.Bytes(x.seed, key)) & mask
	for x.slots[i] != 0 && !bytes.Equal(x.key(x.slots[i]-1), key) {
		i = (i + 1) & mask
	}
	return i
}

// find returns key's id, or -1.
func (x *keyIndex) find(key []byte) int32 {
	if len(x.slots) == 0 {
		return -1
	}
	return x.slots[x.slot(key)] - 1
}

// add returns key's id, numbering it if new.
func (x *keyIndex) add(key []byte) int32 {
	x.reserve(len(x.ends) + 1)
	i := x.slot(key)
	if x.slots[i] == 0 {
		x.arena = append(x.arena, key...)
		x.ends = append(x.ends, len(x.arena))
		x.slots[i] = int32(len(x.ends))
	}
	return x.slots[i] - 1
}

// reserve sizes the table for n keys, keeping it at most half full.
func (x *keyIndex) reserve(n int) {
	if 2*n <= len(x.slots) {
		return
	}
	size := max(16, len(x.slots))
	for size < 2*n {
		size *= 2
	}
	x.slots = make([]int32, size)
	for id := range x.ends {
		x.slots[x.slot(x.key(int32(id)))] = int32(id + 1)
	}
}

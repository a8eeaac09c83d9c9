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
	"tez/internal/runtime"
)

// The consumer of a hash-partitioned edge (DESIGN §13, "Which edge a
// shuffle takes"). The compiler chooses the edge only for a fold that is
// exact in any order, so the consumer reads its frames in physical-input
// order, folds every row into its group's states found by the group's
// encoded key, and writes the groups sorted by that key: the rows, and
// the order, the ordered edge's merge and groupFold would have written.

// hashInput is one InHash input: its reader and the key expressions its
// rows were partitioned by.
type hashInput struct {
	kv   runtime.KVReader
	keys []*Expr
}

// runHashed folds the stage's hash inputs and writes the groups to its
// group-output emitters. An aggregate folds every frame; a join fused
// with its aggregate builds a hash table on side 0 and folds the products
// of side 1's rows with their matches.
func (p *stageProcessor) runHashed(ins []hashInput, bound []*vecEmitter) error {
	g := p.spec.Group
	if g == nil {
		return fmt.Errorf("relop: hash inputs without group op")
	}
	f, err := getHashFold(g, DefaultBatchSize)
	if err != nil {
		return err
	}
	defer hashFolds.Put(f)
	switch {
	case g.Kind == "agg":
		err = f.addInputs(ins)
	case g.Kind == "join" && g.Sides == 2 && g.AggInput != nil:
		err = f.join(ins)
		if p.ctx.Services.Counters != nil {
			p.ctx.Services.Counters.Add("HASHTABLE_BUILDS", 1)
		}
	default:
		return fmt.Errorf("relop: group op %q cannot read a hash edge", g.Kind)
	}
	if err != nil {
		return err
	}
	return f.emit(bound)
}

// hashFold folds rows into per-group aggregate states, found by the
// group's encoded key, in whatever order the rows arrive. Rows come a
// frame at a time (addInputs: an agg stage's [group..., args...] rows) or
// as a join's product rows (writeProduct), projected by AggInput when
// their batch flushes. emit writes the groups in key order. A fold is
// reused from task to task (hashFolds): its index, states and batches
// keep their storage.
type hashFold struct {
	g     *GroupOp
	size  int
	needs []aggNeed
	keys  keyIndex // encoded key ↔ group
	// first[i] is the row of vals holding group i's key columns, copied
	// from its first folded row; -1 before that (a join's build creates
	// groups no product may reach).
	first  []int32
	vals   *col.Batch
	states []aggState // group i's at [i*len(g.Aggs), (i+1)*len(g.Aggs))
	// A join's product rows waiting to fold, and their groups.
	in   *col.Batch
	gids []int32
	vecs []col.Vector
	// A join's build: side 0's frames and their rows, chained per group.
	build []*col.Batch
	rows  []buildRow
	head  []int32 // group → its last build row (-1: none)
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
	return &hashFold{keys: keyIndex{seed: maphash.MakeSeed()},
		vals: col.NewBatch(), in: col.NewBatch(), b: col.NewBatch()}
}}

// getHashFold returns an empty fold of g's aggregates that batches a
// join's product by size rows.
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
	f.keys.reset()
	f.first, f.states, f.gids = f.first[:0], f.states[:0], f.gids[:0]
	f.rows, f.head = f.rows[:0], f.head[:0]
	f.vals.Reset()
	f.vals.EnsureWidth(g.GroupWidth)
	f.in.Reset()
	return f, nil
}

// group returns the group of an encoded key, adding it if new.
func (f *hashFold) group(key []byte) int32 {
	id := f.keys.add(key)
	if int(id) == len(f.first) {
		f.first = append(f.first, -1)
		for range f.g.Aggs {
			f.states = append(f.states, aggState{})
		}
	}
	return id
}

// groupRows returns the group of each of b's rows keyed by keys, adding
// the groups of new keys when add is set and giving them -1 when it is
// not. Consecutive rows with equal keys look their group up once.
func (f *hashFold) groupRows(b *col.Batch, keys []*Expr, add bool) []int32 {
	f.keyVecs = evalKeys(f.keyVecs[:0], keys, b)
	f.rowIDs = f.rowIDs[:0]
	id := int32(-1)
	for i := 0; i < b.Len(); i++ {
		f.keyBuf = appendKey(f.keyBuf[:0], f.keyVecs, i, nil)
		if i == 0 || !bytes.Equal(f.keyBuf, f.prevKey) {
			if add {
				id = f.group(f.keyBuf)
			} else {
				id = f.keys.find(f.keyBuf)
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

// fold folds b's rows, dense, into their groups gids[i]: each run of rows
// of one group at once, through observeChunk.
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
		states := f.states[int(id)*na : int(id+1)*na]
		for i, a := range f.g.Aggs {
			if c := a.Col; c >= 0 && c < b.Width() {
				observeChunk(&states[i], b.Col(c), lo, hi, f.needs[i])
			}
		}
		lo = hi
	}
	return nil
}

// buildRow is a side-0 row of a hash join: its frame, its row there, and
// the next build row of its group (-1: none).
type buildRow struct {
	frame, row, next int32
}

// join reads a fused join's two sides. Side 0's frames are decoded and
// kept, their rows chained per key (the build); side 1's rows are then
// looked up frame by frame (the probe). Each match folds as one product
// row, side 0's columns first, as joinGroups writes it.
func (f *hashFold) join(ins []hashInput) error {
	type frame struct {
		data []byte
		keys []*Expr
	}
	var sides [2][]frame
	for _, in := range ins {
		for in.kv.Next() {
			tag := in.kv.Key()
			if len(tag) != 1 || tag[0] > 1 {
				return fmt.Errorf("relop: join frame tagged %x", tag)
			}
			sides[tag[0]] = append(sides[tag[0]], frame{in.kv.Value(), in.keys})
		}
		if err := in.kv.Err(); err != nil {
			return err
		}
	}
	for len(f.build) < len(sides[0]) {
		f.build = append(f.build, col.NewBatch())
	}
	n := 0
	for i, fr := range sides[0] {
		if err := col.DecodeBatchInto(f.build[i], fr.data, nil); err != nil {
			return err
		}
		n += f.build[i].Len()
	}
	f.keys.reserve(n)
	for i, fr := range sides[0] {
		for r, id := range f.groupRows(f.build[i], fr.keys, true) {
			if int(id) == len(f.head) {
				f.head = append(f.head, -1)
			}
			f.rows = append(f.rows, buildRow{frame: int32(i), row: int32(r), next: f.head[id]})
			f.head[id] = int32(len(f.rows) - 1)
		}
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
			for r := f.head[id]; r >= 0; r = f.rows[r].next {
				if err := f.writeProduct(id, f.build[f.rows[r].frame], int(f.rows[r].row), pb, i); err != nil {
					return err
				}
			}
		}
	}
	return f.flush()
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
	for c := 0; c < bb.Width(); c++ {
		f.in.Col(c).AppendFrom(bb.Col(c), bi)
	}
	for c := 0; c < pb.Width(); c++ {
		f.in.Col(bb.Width()+c).AppendFrom(pb.Col(c), pi)
	}
	f.in.SetRowCount(f.in.Len() + 1)
	f.gids = append(f.gids, id)
	if f.in.Len() >= f.size {
		return f.flush()
	}
	return nil
}

// flush projects the waiting product rows by AggInput and folds them.
func (f *hashFold) flush() error {
	n := f.in.Len()
	if n == 0 {
		return nil
	}
	f.vecs = f.vecs[:0]
	for _, e := range f.g.AggInput {
		f.vecs = append(f.vecs, evalVec(e, f.in))
	}
	err := f.fold(col.FromVectors(n, nil, f.vecs), f.gids)
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

// emit writes every group that folded a row, in encoded key order.
func (f *hashFold) emit(ems []*vecEmitter) error {
	f.order = f.order[:0]
	for id, r := range f.first {
		if r >= 0 {
			var p [8]byte
			copy(p[:], f.keys.key(int32(id)))
			f.order = append(f.order, sortKey{binary.BigEndian.Uint64(p[:]), int32(id)})
		}
	}
	slices.SortFunc(f.order, func(a, b sortKey) int {
		if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
			return c
		}
		return bytes.Compare(f.keys.key(a.id), f.keys.key(b.id))
	})
	na := len(f.g.Aggs)
	for _, k := range f.order {
		id := int(k.id)
		if err := writeAggRow(ems, f.g, f.vals, int(f.first[id]), f.states[id*na:(id+1)*na]); err != nil {
			return err
		}
	}
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

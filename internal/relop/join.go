package relop

import (
	"fmt"
	"hash/maphash"

	"tez/internal/col"
	"tez/internal/metrics"
	"tez/internal/row"
)

// The joins (DESIGN §13, "One join table"): both hash joins, the
// broadcast join's probe (vecEmitter.hashJoin) and a join fused with its
// aggregate (hashFold.join), match against a joinTable; the sorted join
// (joinGroups) writes each key group's product.

// joinTable is a hash join's build side: its rows, decoded into column
// batches, chained per key through a keyIndex in build arrival order. A
// row with a NULL in any key column is left out: an inner join pairs it
// with nothing, so a probe key with a NULL finds no match either. A
// table shared through the object registry is read-only once built.
type joinTable struct {
	keys    keyIndex
	batches []*col.Batch
	rows    []buildRow
	head    []int32 // key id → its first build row (-1: none)
}

// buildRow is a build row: its batch, its row there, and its key's next
// build row (-1: none).
type buildRow struct{ batch, row, next int32 }

// keyedFrame is a col.EncodeBatch frame and its rows' key expressions.
type keyedFrame struct {
	data []byte
	keys []*Expr
}

func newJoinTable() *joinTable { return &joinTable{keys: keyIndex{seed: maphash.MakeSeed()}} }

func (t *joinTable) reset() {
	t.keys.reset()
	t.rows, t.head = t.rows[:0], t.head[:0]
}

// build decodes frames into the table's batches, reusing them, numbers
// each row's key through add, skipping a key with a NULL, links the rows
// and counts one HASHTABLE_BUILDS.
func (t *joinTable) build(frames []keyedFrame, add func(key []byte) int32, counters *metrics.Counters) error {
	for len(t.batches) < len(frames) {
		t.batches = append(t.batches, col.NewBatch())
	}
	n := 0
	for i, fr := range frames {
		if err := col.DecodeBatchInto(t.batches[i], fr.data, nil); err != nil {
			return err
		}
		n += t.batches[i].Len()
	}
	t.keys.reserve(n)
	var keyVecs []col.Vector
	var key []byte
	for i, fr := range frames {
		keyVecs = evalKeys(keyVecs[:0], fr.keys, t.batches[i])
	rows:
		for r := range t.batches[i].Len() {
			for j := range keyVecs {
				if keyVecs[j].IsNull(r) {
					continue rows
				}
			}
			key = appendKey(key[:0], keyVecs, r, nil)
			t.rows = append(t.rows, buildRow{int32(i), int32(r), add(key)})
		}
	}
	t.link()
	if counters != nil {
		counters.Add("HASHTABLE_BUILDS", 1)
	}
	return nil
}

// link chains the rows, each of whose next holds its key id until then,
// per key in arrival order.
func (t *joinTable) link() {
	for range len(t.keys.ends) - len(t.head) {
		t.head = append(t.head, -1)
	}
	for r := len(t.rows) - 1; r >= 0; r-- {
		id := t.rows[r].next
		t.rows[r].next, t.head[id] = t.head[id], int32(r)
	}
}

// appendPair appends a's row ai and then b's row bi to dst, as wide as
// both; the caller commits the row.
func appendPair(dst, a *col.Batch, ai int, b *col.Batch, bi int) {
	for c := range a.Width() {
		dst.Col(c).AppendFrom(a.Col(c), ai)
	}
	for c := range b.Width() {
		dst.Col(a.Width()+c).AppendFrom(b.Col(c), bi)
	}
}

// joinGroups is the reduce side of a sorted join. Each group's tagged
// values are parsed per side, 0 and 1, into column segments — a new
// segment wherever the row width changes, so ragged rows keep their
// shape — and the segments are reused from group to group.
type joinGroups struct {
	sides [2]joinSide
}

// joinSide holds one side of the current group in segs[:n].
type joinSide struct {
	segs []*col.Batch
	n    int
}

// add appends one encoded row, opening a segment for the side's first row
// or on a width change.
func (s *joinSide) add(encoded []byte) error {
	if s.n > 0 {
		if ok, err := s.segs[s.n-1].AppendEncoded(encoded); err != nil || ok {
			return err
		}
	}
	if s.n == len(s.segs) {
		s.segs = append(s.segs, col.NewBatch())
	} else {
		s.segs[s.n].Reset()
	}
	s.n++
	_, err := s.segs[s.n-1].AppendEncoded(encoded) // an empty batch takes any width
	return err
}

// split parses the tagged values of key's group into its sides' segments
// and reports whether both sides hold a row: an inner join's product is
// empty otherwise, and so is a key with a NULL, which matches nothing.
func (j *joinGroups) split(key []byte, values [][]byte) (bool, error) {
	j.sides[0].n, j.sides[1].n = 0, 0
	if row.KeyHasNull(key) {
		return false, nil
	}
	for _, v := range values {
		if len(v) == 0 {
			return false, fmt.Errorf("relop: untagged join value")
		}
		tag := int(v[0])
		if tag >= len(j.sides) {
			return false, fmt.Errorf("relop: join tag %d out of %d sides", tag, len(j.sides))
		}
		if err := j.sides[tag].add(v[1:]); err != nil {
			return false, err
		}
	}
	return j.sides[0].n > 0 && j.sides[1].n > 0, nil
}

// eachPair calls pair with every row of the split group's side-0 ×
// side-1 product, side 0 outermost: side 0's row ai of a, side 1's row bi
// of b.
func (j *joinGroups) eachPair(pair func(a *col.Batch, ai int, b *col.Batch, bi int) error) error {
	s0, s1 := &j.sides[0], &j.sides[1]
	for _, a := range s0.segs[:s0.n] {
		for ai := 0; ai < a.Len(); ai++ {
			for _, b := range s1.segs[:s1.n] {
				for bi := 0; bi < b.Len(); bi++ {
					if err := pair(a, ai, b, bi); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// run writes the product of key's group into every emitter's batch
// column to column; each batch flushes on a width change or when full, as
// in hashJoin.
func (j *joinGroups) run(key []byte, values [][]byte, ems []*vecEmitter) error {
	if ok, err := j.split(key, values); !ok || err != nil {
		return err
	}
	return j.eachPair(func(a *col.Batch, ai int, b *col.Batch, bi int) error {
		for _, em := range ems {
			dst, err := em.beginRow(a.Width() + b.Width())
			if err != nil {
				return err
			}
			appendPair(dst, a, ai, b, bi)
			if err := em.endRow(); err != nil {
				return err
			}
		}
		return nil
	})
}

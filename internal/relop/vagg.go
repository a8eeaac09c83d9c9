package relop

import (
	"bytes"
	"fmt"
	"slices"

	"tez/internal/col"
	"tez/internal/row"
)

// aggNeed records which aggState fields a given aggregate function reads
// besides count, so the chunk kernels skip updates the result will never
// look at (the row oracle updates everything unconditionally; skipping is
// pure optimization and cannot change output).
type aggNeed struct {
	sum bool
	mm  bool
}

// aggNeeds lists the aggregate functions; count needs only the count of
// non-null arguments.
var aggNeeds = map[string]aggNeed{
	"sum": {sum: true}, "avg": {sum: true},
	"min": {mm: true}, "max": {mm: true},
	"count": {},
}

// groupFold folds every sorted-group aggregate: an agg stage's
// groups and a join's product aggregated in the join's task (a join
// GroupOp with AggInput, whose join groups are the aggregate groups) both
// run through it. Rows arrive group by group — startGroup makes the next
// row a group's first — either encoded (addEncoded, an agg stage's
// values) or column by column (beginRow/endRow, a join's product rows).
// They accumulate in one batch across groups; a flush projects the batch
// by AggInput, if the op has one, to rows laid out [group..., args...]
// (the first GroupWidth columns are the key, aggregate i reads column
// Aggs[i].Col) and folds each group's run of rows into that group's
// states with foldChunk (an agg stage of partial states merges them). A
// group may start mid-batch and continue past
// a flush; its result row is written when the next group starts or the
// rows end.
type groupFold struct {
	g       *GroupOp
	size    int
	ems     []*vecEmitter
	in      *col.Batch
	starts  []int // rows of in at which a group starts
	pending bool  // a group has started and has no row yet
	vecs    []col.Vector
	// The open group, reused from group to group: its key columns, copied
	// from its first row, and one state per aggregate. open says whether
	// its row is unwritten.
	open   bool
	key    *col.Batch
	states []aggState
	needs  []aggNeed
}

// newGroupFold folds g's groups in batches of size rows into ems.
func newGroupFold(g *GroupOp, size int, ems []*vecEmitter) *groupFold {
	return &groupFold{g: g, size: size, ems: ems, in: col.NewBatch(), key: col.NewBatch()}
}

// startGroup makes the next row the first of a new group.
func (f *groupFold) startGroup() { f.pending = true }

// addGroup folds one group of encoded rows.
func (f *groupFold) addGroup(values [][]byte) error {
	f.startGroup()
	for _, v := range values {
		if err := f.addEncoded(v); err != nil {
			return err
		}
	}
	return nil
}

// addEncoded parses one encoded row into the batch, flushing first on a
// width change.
func (f *groupFold) addEncoded(v []byte) error {
	ok, err := f.in.AppendEncoded(v)
	if err == nil && !ok {
		if err = f.flush(); err == nil {
			_, err = f.in.AppendEncoded(v) // an empty batch takes any width
		}
	}
	if err != nil {
		return err
	}
	return f.added()
}

// beginRow readies the batch for one width-w row, flushing first on a
// width change; endRow commits it.
func (f *groupFold) beginRow(w int) (*col.Batch, error) {
	if f.in.Len() > 0 && f.in.Width() != w {
		if err := f.flush(); err != nil {
			return nil, err
		}
	}
	f.in.EnsureWidth(w)
	return f.in, nil
}

func (f *groupFold) endRow() error {
	f.in.SetRowCount(f.in.Len() + 1)
	return f.added()
}

// added records a row just appended: the first of its group if one is
// pending. A full batch flushes.
func (f *groupFold) added() error {
	if f.pending {
		f.starts = append(f.starts, f.in.Len()-1)
		f.pending = false
	}
	if f.in.Len() >= f.size {
		return f.flush()
	}
	return nil
}

// flush folds the batched rows group by group.
func (f *groupFold) flush() error {
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
	lo := 0
	for k := 0; k <= len(f.starts); k++ {
		hi := n
		if k < len(f.starts) {
			hi = f.starts[k]
		}
		if hi > lo {
			if err := foldChunk(f.g, f.states, b, lo, hi, f.needs); err != nil {
				return err
			}
			lo = hi
		}
		if k == len(f.starts) {
			break
		}
		if err := f.finishGroup(); err != nil {
			return err
		}
		if err := f.openGroup(b, hi); err != nil {
			return err
		}
	}
	f.in.Reset()
	f.starts = f.starts[:0]
	return nil
}

// openGroup starts the group whose first row is b's row i: fresh states,
// and the key copied from that row.
func (f *groupFold) openGroup(b *col.Batch, i int) error {
	w := f.g.GroupWidth
	if b.Width() < w {
		return fmt.Errorf("relop: %d-column row under a %d-column group key", b.Width(), w)
	}
	f.states, f.needs = slices.Grow(f.states[:0], len(f.g.Aggs))[:len(f.g.Aggs)], f.needs[:0]
	for i, a := range f.g.Aggs {
		need, ok := aggNeeds[a.Func]
		if !ok {
			return fmt.Errorf("relop: unknown aggregate %q", a.Func)
		}
		f.states[i].reset()
		f.needs = append(f.needs, need)
	}
	f.key.Reset()
	f.key.EnsureWidth(w)
	for c := 0; c < w; c++ {
		f.key.Col(c).AppendFrom(b.Col(c), i)
	}
	f.open = true
	return nil
}

// foldChunk folds rows [lo, hi) of b, all of one group, into its states:
// each aggregate's argument column through observeChunk, or, when g's
// rows are partial states, each state column through mergeChunk. An
// out-of-range column is all-null: it adds nothing.
func foldChunk(g *GroupOp, states []aggState, b *col.Batch, lo, hi int, needs []aggNeed) error {
	for i, a := range g.Aggs {
		c := a.Col
		switch {
		case c < 0 || c >= b.Width():
		case g.Partial:
			if err := mergeChunk(&states[i], b.Col(c), lo, hi); err != nil {
				return err
			}
		default:
			observeChunk(&states[i], b.Col(c), lo, hi, needs[i])
		}
	}
	return nil
}

// finishGroup writes the open group's result row.
func (f *groupFold) finishGroup() error {
	if !f.open {
		return nil
	}
	f.open = false
	return writeAggRow(f.ems, f.g, f.key, 0, f.states)
}

// writeAggRow appends one group's result row — row r of key's columns,
// then the typed results of its states — to every emitter.
func writeAggRow(ems []*vecEmitter, g *GroupOp, key *col.Batch, r int, states []aggState) error {
	keyWidth := g.GroupWidth
	for _, em := range ems {
		b, err := em.beginRow(keyWidth + len(g.Aggs))
		if err != nil {
			return err
		}
		for c := 0; c < keyWidth; c++ {
			b.Col(c).AppendFrom(key.Col(c), r)
		}
		for i, a := range g.Aggs {
			v, st := b.Col(keyWidth+i), &states[i]
			switch {
			case a.Func == "count":
				v.AppendInt(st.count)
			case a.Func == "min":
				v.AppendValue(st.min)
			case a.Func == "max":
				v.AppendValue(st.max)
			case st.count == 0: // sum or avg of no values
				v.AppendNull()
			case a.Func == "sum":
				v.AppendFloat(st.sum(1))
			case a.Func == "avg":
				v.AppendFloat(st.sum(st.count))
			}
		}
		if err := em.endRow(); err != nil {
			return err
		}
	}
	return nil
}

// close folds the batched rows and writes the last group's row.
func (f *groupFold) close() error {
	if err := f.flush(); err != nil {
		return err
	}
	return f.finishGroup()
}

// observeChunk folds rows [lo, hi) of one column into st: count counts
// the non-null ones and the other fields skip nulls. Sums add exactly
// (aggState); min and max compare by row.CompareTotal, chunk-locally in
// the column's own kind (ints as ints, floats by their key bits, strings
// byte-wise, which is that order within one kind), so a chunk's extremes
// are the same whatever order its rows come in.
func observeChunk(st *aggState, v *col.Vector, lo, hi int, need aggNeed) {
	if hi <= lo {
		return
	}
	switch {
	case v.Kind() == col.Unset:
		return // every row null
	case v.IsConst() || v.Kind() == col.Any || v.Kind() == col.Bool:
		for i := lo; i < hi; i++ {
			val := v.Value(i)
			if val.IsNull() {
				continue
			}
			st.count++
			if need.sum {
				st.addValue(val)
			}
			if need.mm {
				st.observeExtremes(val, val)
			}
		}
	case v.Kind() == col.Int64:
		var mn, mx int64
		found := false
		if !v.HasNulls() {
			st.count += int64(hi - lo)
			if need.sum {
				st.addInts(v.Ints[lo:hi])
			}
			if need.mm {
				mn, mx = v.Ints[lo], v.Ints[lo]
				for _, x := range v.Ints[lo+1 : hi] {
					mn, mx = min(mn, x), max(mx, x)
				}
				found = true
			}
		} else {
			for i := lo; i < hi; i++ {
				if v.IsNull(i) {
					continue
				}
				st.count++
				x := v.Ints[i]
				if need.sum {
					st.addInt(x)
				}
				if need.mm {
					if !found {
						mn, mx = x, x
					}
					mn, mx = min(mn, x), max(mx, x)
					found = true
				}
			}
		}
		if found && need.mm {
			st.observeExtremes(row.Int(mn), row.Int(mx))
		}
	case v.Kind() == col.Float64:
		if !v.HasNulls() && !need.mm {
			st.count += int64(hi - lo)
			if need.sum {
				st.addFloats(v.Floats[lo:hi])
			}
			return
		}
		var mn, mx float64
		var mnKey, mxKey uint64
		found := false
		for i := lo; i < hi; i++ {
			if v.IsNull(i) {
				continue
			}
			st.count++
			x := v.Floats[i]
			if need.sum {
				st.addFloat(x)
			}
			if need.mm {
				k := row.NumericKeyBits(x)
				if !found || k < mnKey {
					mn, mnKey = x, k
				}
				if !found || k > mxKey {
					mx, mxKey = x, k
				}
				found = true
			}
		}
		if found && need.mm {
			st.observeExtremes(row.Float(mn), row.Float(mx))
		}
	case v.Kind() == col.Bytes:
		// Strings coerce to float 0 under AsFloat and add nothing to a
		// sum, so only count and min/max need the scan.
		mnI, mxI := -1, -1
		for i := lo; i < hi; i++ {
			if v.IsNull(i) {
				continue
			}
			st.count++
			if !need.mm {
				continue
			}
			if mnI < 0 {
				mnI, mxI = i, i
				continue
			}
			s := v.BytesAt(i)
			if bytes.Compare(s, v.BytesAt(mnI)) < 0 {
				mnI = i
			}
			if bytes.Compare(s, v.BytesAt(mxI)) > 0 {
				mxI = i
			}
		}
		if mnI >= 0 {
			st.observeExtremes(row.String(string(v.BytesAt(mnI))), row.String(string(v.BytesAt(mxI))))
		}
	}
}

// mergeChunk merges rows [lo, hi) of a column of partial states (the
// partial wire form, aggstate.go) into st.
func mergeChunk(st *aggState, v *col.Vector, lo, hi int) error {
	for i := lo; i < hi; i++ {
		if v.Kind() != col.Bytes || v.IsNull(i) {
			return fmt.Errorf("relop: partial aggregate state is %v", v.Value(i))
		}
		if err := st.mergePartial(v.BytesAt(i)); err != nil {
			return err
		}
	}
	return nil
}

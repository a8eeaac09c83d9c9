package relop

import (
	"bytes"
	"fmt"

	"tez/internal/col"
	"tez/internal/row"
)

// aggState accumulates one aggregate over its non-null arguments: count
// counts them, sum accumulates their float64 values in row order (a sum or
// avg of no values is null), min/max keep the first value on Compare ties
// (observeChunk applies the rules).
type aggState struct {
	sum   float64
	count int64
	min   row.Value
	max   row.Value
	init  bool
}

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
// states with observeChunk. A group may start mid-batch and continue past
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
			f.observe(b, lo, hi)
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
	f.states, f.needs = f.states[:0], f.needs[:0]
	for _, a := range f.g.Aggs {
		need, ok := aggNeeds[a.Func]
		if !ok {
			return fmt.Errorf("relop: unknown aggregate %q", a.Func)
		}
		f.states = append(f.states, aggState{})
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

// observe folds rows [lo, hi) of b into the open group's states. An
// out-of-range column is all-null: it adds nothing.
func (f *groupFold) observe(b *col.Batch, lo, hi int) {
	for i := range f.g.Aggs {
		if c := f.g.Aggs[i].Col; c >= 0 && c < b.Width() {
			observeChunk(&f.states[i], b.Col(c), lo, hi, f.needs[i])
		}
	}
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
				v.AppendFloat(st.sum)
			case a.Func == "avg":
				v.AppendFloat(st.sum / float64(st.count))
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
// the non-null ones and the other fields skip nulls. Chunk-local min/max
// use strict comparisons (first occurrence wins within the chunk) and
// merge into the running extremes with strict row.Compare (the earlier
// chunk wins ties) — exactly the order a row-at-a-time scan observes.
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
				st.sum += val.AsFloat()
			}
			if need.mm {
				st.mergeExtremes(val, val)
			}
		}
	case v.Kind() == col.Int64:
		var mn, mx int64
		found := false
		if !v.HasNulls() {
			st.count += int64(hi - lo)
			if need.sum {
				for _, x := range v.Ints[lo:hi] {
					st.sum += float64(x)
				}
			}
			if need.mm {
				mn, mx = v.Ints[lo], v.Ints[lo]
				for _, x := range v.Ints[lo+1 : hi] {
					if x < mn {
						mn = x
					}
					if x > mx {
						mx = x
					}
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
					st.sum += float64(x)
				}
				if need.mm {
					if !found || x < mn {
						mn = x
					}
					if !found || x > mx {
						mx = x
					}
					found = true
				}
			}
		}
		if found && need.mm {
			st.mergeExtremes(row.Int(mn), row.Int(mx))
		}
	case v.Kind() == col.Float64:
		var mn, mx float64
		found := false
		for i := lo; i < hi; i++ {
			if v.IsNull(i) {
				continue
			}
			st.count++
			x := v.Floats[i]
			if need.sum {
				st.sum += x
			}
			if need.mm {
				// NaN compares unordered both ways, so the first value
				// sticks — matching row.Compare returning 0.
				if !found || x < mn {
					mn = x
				}
				if !found || x > mx {
					mx = x
				}
				found = true
			}
		}
		if found && need.mm {
			st.mergeExtremes(row.Float(mn), row.Float(mx))
		}
	case v.Kind() == col.Bytes:
		// Strings coerce to float 0 under AsFloat; adding +0 never
		// changes a float64 sum (the accumulator cannot be -0: it starts
		// at +0 and x + -0 == x for any reachable x), so only count and
		// min/max need the scan.
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
			st.mergeExtremes(row.String(string(v.BytesAt(mnI))), row.String(string(v.BytesAt(mxI))))
		}
	}
}

// mergeExtremes folds chunk-local extremes into the running state under
// the tie rule: strict Compare, earlier value wins ties.
func (st *aggState) mergeExtremes(mn, mx row.Value) {
	if !st.init || row.Compare(mn, st.min) < 0 {
		st.min = mn
	}
	if !st.init || row.Compare(mx, st.max) > 0 {
		st.max = mx
	}
	st.init = true
}

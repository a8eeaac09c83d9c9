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

// aggScratch is one group's aggregation storage, reused from group to
// group. The rows it folds are laid out [group..., args...]: the first
// GroupWidth columns are the key, aggregate i reads column Aggs[i].Col.
type aggScratch struct {
	chunk  *col.Batch // aggGroupVec: the group's values, batchSize rows at a time
	key    *col.Batch // the group key columns, copied from its first row
	states []aggState
	needs  []aggNeed
}

// begin readies the scratch for a new group.
func (s *aggScratch) begin(g *GroupOp) error {
	if s.key == nil {
		s.chunk, s.key = col.NewBatch(), col.NewBatch()
	}
	s.states, s.needs = s.states[:0], s.needs[:0]
	for _, a := range g.Aggs {
		need, ok := aggNeeds[a.Func]
		if !ok {
			return fmt.Errorf("relop: unknown aggregate %q", a.Func)
		}
		s.states = append(s.states, aggState{})
		s.needs = append(s.needs, need)
	}
	return nil
}

// setKey copies the first w columns of b's row i as the group key.
func (s *aggScratch) setKey(b *col.Batch, i, w int) {
	s.key.Reset()
	s.key.EnsureWidth(w)
	for c := 0; c < w; c++ {
		s.key.Col(c).AppendFrom(b.Col(c), i)
	}
}

// observe folds rows [lo, hi) of b into the group's states. An
// out-of-range column is all-null: it adds nothing.
func (s *aggScratch) observe(g *GroupOp, b *col.Batch, lo, hi int) {
	for i := range g.Aggs {
		if c := g.Aggs[i].Col; c >= 0 && c < b.Width() {
			observeChunk(&s.states[i], b.Col(c), lo, hi, s.needs[i])
		}
	}
}

// write appends the group's result row — its keyWidth key columns, then
// the typed results — to every emitter: the one result writer of both
// aggregate paths (aggGroupVec and joinAgg).
func (s *aggScratch) write(g *GroupOp, keyWidth int, ems []*vecEmitter) error {
	for _, em := range ems {
		b, err := em.beginRow(keyWidth + len(g.Aggs))
		if err != nil {
			return err
		}
		for c := 0; c < keyWidth; c++ {
			b.Col(c).AppendFrom(s.key.Col(c), 0)
		}
		for i, a := range g.Aggs {
			v, st := b.Col(keyWidth+i), &s.states[i]
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

// aggGroupVec computes one group's aggregates batch-at-a-time: the
// encoded values are parsed straight into a chunk batch, typed column
// kernels update the group's aggStates, and every emitter gets the key
// columns followed by the typed results.
func aggGroupVec(g *GroupOp, values [][]byte, batchSize int, s *aggScratch, ems []*vecEmitter) error {
	if err := s.begin(g); err != nil {
		return err
	}
	chunk := s.chunk // empty: the last group's final flush reset it
	keyWidth := -1   // fixed by the first chunk
	flush := func() error {
		n := chunk.Len()
		if n == 0 {
			return nil
		}
		if keyWidth < 0 {
			if w := chunk.Width(); w < g.GroupWidth {
				return fmt.Errorf("relop: %d-column row under a %d-column group key", w, g.GroupWidth)
			}
			keyWidth = g.GroupWidth
			s.setKey(chunk, 0, keyWidth)
		}
		s.observe(g, chunk, 0, n)
		chunk.Reset()
		return nil
	}
	for _, v := range values {
		ok, err := chunk.AppendEncoded(v)
		if err != nil {
			return err
		}
		if !ok {
			// Width change mid-group: aggregate the chunk so far, then
			// restart with the new shape.
			if err := flush(); err != nil {
				return err
			}
			if _, err = chunk.AppendEncoded(v); err != nil {
				return err
			}
		}
		if chunk.Len() >= batchSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if keyWidth < 0 {
		keyWidth = 0 // no values: the aggregates alone
	}
	return s.write(g, keyWidth, ems)
}

// joinAgg aggregates a join's product in the join's task (a join GroupOp
// with AggInput). The join groups are the aggregate groups, so a group's
// rows arrive together, in product order. Product rows accumulate in one
// batch across groups; a flush projects the batch by AggInput and folds
// each group's run of rows into that group's states as aggGroupVec folds
// a chunk. A group may start mid-batch and continue past a flush; its
// result row is written when the next group starts or the rows end.
type joinAgg struct {
	g       *GroupOp
	size    int
	ems     []*vecEmitter
	in      *col.Batch
	starts  []int // rows of in at which a group starts
	pending bool  // a group has started and has no row yet
	open    bool  // s holds a group whose row is unwritten
	s       aggScratch
	vecs    []col.Vector
}

// startGroup makes the next row the first of a new group.
func (f *joinAgg) startGroup() { f.pending = true }

// beginRow readies the batch for one width-w product row, flushing first
// on a width change; endRow commits it.
func (f *joinAgg) beginRow(w int) (*col.Batch, error) {
	if f.in.Len() > 0 && f.in.Width() != w {
		if err := f.flush(); err != nil {
			return nil, err
		}
	}
	f.in.EnsureWidth(w)
	if f.pending {
		f.starts = append(f.starts, f.in.Len())
		f.pending = false
	}
	return f.in, nil
}

func (f *joinAgg) endRow() error {
	f.in.SetRowCount(f.in.Len() + 1)
	if f.in.Len() >= f.size {
		return f.flush()
	}
	return nil
}

// flush folds the batched rows group by group.
func (f *joinAgg) flush() error {
	n := f.in.Len()
	if n == 0 {
		return nil
	}
	f.vecs = f.vecs[:0]
	for _, e := range f.g.AggInput {
		f.vecs = append(f.vecs, evalVec(e, f.in))
	}
	b := col.FromVectors(n, nil, f.vecs)
	lo := 0
	for k := 0; k <= len(f.starts); k++ {
		hi := n
		if k < len(f.starts) {
			hi = f.starts[k]
		}
		if hi > lo {
			f.s.observe(f.g, b, lo, hi)
			lo = hi
		}
		if k == len(f.starts) {
			break
		}
		if err := f.finishGroup(); err != nil {
			return err
		}
		if err := f.s.begin(f.g); err != nil {
			return err
		}
		f.s.setKey(b, hi, f.g.GroupWidth)
		f.open = true
	}
	f.in.Reset()
	f.starts = f.starts[:0]
	return nil
}

// finishGroup writes the open group's row.
func (f *joinAgg) finishGroup() error {
	if !f.open {
		return nil
	}
	f.open = false
	return f.s.write(f.g, f.g.GroupWidth, f.ems)
}

// close folds the batched rows and writes the last group's row.
func (f *joinAgg) close() error {
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

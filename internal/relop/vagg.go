package relop

import (
	"bytes"
	"fmt"

	"tez/internal/col"
	"tez/internal/row"
)

// aggState accumulates one aggregate: count includes nulls, sum
// accumulates float64 in row order, min/max keep the first value on
// Compare ties (observeChunk applies the rules).
type aggState struct {
	sum   float64
	count int64
	min   row.Value
	max   row.Value
	init  bool
}

// aggNeed records which aggState fields a given aggregate function reads,
// so the chunk kernels skip updates the result will never look at (the
// row oracle updates everything unconditionally; skipping is pure
// optimization and cannot change output).
type aggNeed struct {
	sum bool
	mm  bool
}

// aggNeeds lists the aggregate functions; count needs only the bulk row
// count.
var aggNeeds = map[string]aggNeed{
	"sum": {sum: true}, "avg": {sum: true},
	"min": {mm: true}, "max": {mm: true},
	"count": {},
}

// aggScratch is aggGroupVec's storage, reused from group to group.
type aggScratch struct {
	chunk  *col.Batch // the group's values, batchSize rows at a time
	key    *col.Batch // the group key columns, copied from the first chunk
	states []aggState
	needs  []aggNeed
}

// aggGroupVec computes one group's aggregates batch-at-a-time: the
// encoded values are parsed straight into a chunk batch, typed column
// kernels update the group's aggStates — count includes nulls, the float
// sum accumulates in row order, min/max keep the first value on ties —
// and every emitter gets the key columns followed by the typed results.
func aggGroupVec(g *GroupOp, values [][]byte, batchSize int, s *aggScratch, ems []*vecEmitter) error {
	if s.chunk == nil {
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
	chunk := s.chunk // empty: the last group's final flush reset it
	keyWidth := -1   // fixed by the first chunk
	flush := func() error {
		n := chunk.Len()
		if n == 0 {
			return nil
		}
		w := chunk.Width()
		if keyWidth < 0 {
			if w < g.GroupWidth {
				return fmt.Errorf("relop: %d-column row under a %d-column group key", w, g.GroupWidth)
			}
			keyWidth = g.GroupWidth
			s.key.Reset()
			s.key.EnsureWidth(keyWidth)
			for c := 0; c < keyWidth; c++ {
				s.key.Col(c).AppendFrom(chunk.Col(c), 0)
			}
		}
		for i := range g.Aggs {
			a := &g.Aggs[i]
			if a.Col < 0 || a.Col >= w {
				// An out-of-range column is all-null: it still counts
				// every row.
				s.states[i].count += int64(n)
				continue
			}
			observeChunk(&s.states[i], chunk.Col(a.Col), n, s.needs[i])
		}
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
			switch a.Func {
			case "sum":
				v.AppendFloat(st.sum)
			case "count":
				v.AppendInt(st.count)
			case "avg":
				if st.count == 0 {
					v.AppendNull()
				} else {
					v.AppendFloat(st.sum / float64(st.count))
				}
			case "min":
				v.AppendValue(st.min)
			case "max":
				v.AppendValue(st.max)
			}
		}
		if err := em.endRow(); err != nil {
			return err
		}
	}
	return nil
}

// observeChunk folds n rows of one column into st. Chunk-local min/max
// use strict comparisons (first occurrence wins within the chunk) and
// merge into the running extremes with strict row.Compare (the earlier
// chunk wins ties) — exactly the order a row-at-a-time scan observes.
func observeChunk(st *aggState, v *col.Vector, n int, need aggNeed) {
	st.count += int64(n)
	if !need.sum && !need.mm {
		return
	}
	switch {
	case v.Kind() == col.Unset:
		return // every row null: count only
	case v.IsConst() || v.Kind() == col.Any || v.Kind() == col.Bool:
		for i := 0; i < n; i++ {
			val := v.Value(i)
			if val.IsNull() {
				continue
			}
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
			if need.sum {
				for _, x := range v.Ints[:n] {
					st.sum += float64(x)
				}
			}
			if need.mm {
				mn, mx = v.Ints[0], v.Ints[0]
				for _, x := range v.Ints[1:n] {
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
			for i := 0; i < n; i++ {
				if v.IsNull(i) {
					continue
				}
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
		for i := 0; i < n; i++ {
			if v.IsNull(i) {
				continue
			}
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
		// at +0 and x + -0 == x for any reachable x), so only min/max
		// need the scan.
		if !need.mm {
			return
		}
		mnI, mxI := -1, -1
		for i := 0; i < n; i++ {
			if v.IsNull(i) {
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

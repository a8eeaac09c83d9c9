package relop

import (
	"bytes"
	"fmt"

	"tez/internal/col"
	"tez/internal/row"
)

// aggNeed records which aggState fields a given aggregate function reads,
// so the chunk kernels skip updates the finalizer will never look at
// (the row oracle updates everything unconditionally; skipping is pure
// optimization and cannot change output).
type aggNeed struct {
	sum bool
	mm  bool
}

func aggNeeds(fn string) aggNeed {
	switch fn {
	case "sum", "avg":
		return aggNeed{sum: true}
	case "min", "max":
		return aggNeed{mm: true}
	}
	return aggNeed{} // count needs only the bulk row count
}

// aggGroupVec computes one group's aggregates batch-at-a-time: the
// encoded values are parsed straight into a scratch batch (no row.Row
// boxing), and typed column kernels update the group's aggStates —
// count includes nulls, the float sum accumulates in row order, min/max
// keep the first value on ties.
func aggGroupVec(g *GroupOp, values [][]byte, batchSize int, scratch *col.Batch, emit func(row.Row) error) error {
	states := make([]aggState, len(g.Aggs))
	var groupVals row.Row
	if len(values) > 0 {
		first, err := row.Decode(values[0])
		if err != nil {
			return err
		}
		groupVals = first[:g.GroupWidth].Clone()
	}
	flush := func() error {
		n := scratch.Len()
		if n == 0 {
			return nil
		}
		w := scratch.Width()
		for i := range g.Aggs {
			a := &g.Aggs[i]
			if a.Col < 0 || a.Col >= w {
				// An out-of-range column is all-null: it still counts
				// every row.
				states[i].count += int64(n)
				continue
			}
			observeChunk(&states[i], scratch.Col(a.Col), n, aggNeeds(a.Func))
		}
		scratch.Reset()
		return nil
	}
	for _, v := range values {
		ok, err := scratch.AppendEncoded(v)
		if err != nil {
			return err
		}
		if !ok {
			// Width change mid-group: aggregate the chunk so far, then
			// restart with the new shape.
			if err := flush(); err != nil {
				return err
			}
			if ok, err = scratch.AppendEncoded(v); err != nil {
				return err
			} else if !ok {
				return fmt.Errorf("relop: agg batch rejected row after reset")
			}
		}
		if scratch.Len() >= batchSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	out, err := finalizeAgg(g, groupVals, states)
	if err != nil {
		return err
	}
	return emit(out)
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

package relop

import (
	"bytes"
	"fmt"

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

package relop

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"math/big"
	"slices"

	"tez/internal/row"
	"tez/internal/runtime"
)

// The row-at-a-time reference the identity tests compare the batch engine
// against (vec_identity_test.go): the per-record expression evaluator,
// emit pipeline, aggregation and reduce-side join that were the
// production engine before the columnar one, kept unchanged in
// behaviour. Nothing outside tests may call them.

// Eval evaluates the expression against r.
func (e *Expr) Eval(r row.Row) row.Value {
	switch e.Kind {
	case "col":
		if e.Col < 0 || e.Col >= len(r) {
			return row.Null()
		}
		return r[e.Col]
	case "lit":
		return e.Lit
	case "cmp":
		a, b := e.Args[0].Eval(r), e.Args[1].Eval(r)
		if a.IsNull() || b.IsNull() {
			return row.Null()
		}
		c := row.Compare(a, b)
		ok := false
		switch e.Op {
		case "=":
			ok = c == 0
		case "!=":
			ok = c != 0
		case "<":
			ok = c < 0
		case "<=":
			ok = c <= 0
		case ">":
			ok = c > 0
		case ">=":
			ok = c >= 0
		}
		return boolVal(ok)
	case "and":
		for _, a := range e.Args {
			if !Truthy(a.Eval(r)) {
				return boolVal(false)
			}
		}
		return boolVal(true)
	case "or":
		for _, a := range e.Args {
			if Truthy(a.Eval(r)) {
				return boolVal(true)
			}
		}
		return boolVal(false)
	case "not":
		return boolVal(!Truthy(e.Args[0].Eval(r)))
	case "arith":
		return arithValues(e.Op, e.Args[0].Eval(r), e.Args[1].Eval(r))
	}
	return row.Null()
}

// Truthy interprets a value as a boolean: non-null and non-zero.
func Truthy(v row.Value) bool {
	switch v.Kind {
	case row.KindNull:
		return false
	case row.KindInt:
		return v.Int != 0
	case row.KindFloat:
		return v.Float != 0
	case row.KindString:
		return v.Str != ""
	}
	return false
}

func boolVal(b bool) row.Value {
	if b {
		return row.Int(1)
	}
	return row.Int(0)
}

// EvalAll evaluates a projection list.
func EvalAll(exprs []*Expr, r row.Row) row.Row {
	out := make(row.Row, len(exprs))
	for i, e := range exprs {
		out[i] = e.Eval(r)
	}
	return out
}

// EvalAllInto evaluates a projection list into a reused buffer.
func EvalAllInto(dst row.Row, exprs []*Expr, r row.Row) row.Row {
	dst = dst[:0]
	for _, e := range exprs {
		dst = append(dst, e.Eval(r))
	}
	return dst
}

// emitter is one EmitSpec run a decoded row at a time.
type emitter struct {
	spec     EmitSpec
	writer   runtime.KVWriter
	tables   map[string]map[string][]row.Row
	deferred []row.Value
	count    int64

	keyScratch []byte  // hash-join probe keys / shuffle keys
	valScratch []byte  // encoded values
	keyVals    row.Row // probe-key evaluation buffer
	// joinRows holds one reusable joined-row buffer per hash-join nesting
	// depth (nothing downstream retains the row: terminals copy).
	joinRows []row.Row
}

func (e *emitter) emit(r row.Row) error {
	return e.runPipe(r, 0, 0)
}

// runPipe applies ops[from:] iteratively; only hash-join fan-out
// recurses (per matched build row, one nesting depth per join).
func (e *emitter) runPipe(r row.Row, from, depth int) error {
	ops := e.spec.Pipe
	for i := from; i < len(ops); i++ {
		op := &ops[i]
		switch op.Kind {
		case "filter":
			if !Truthy(op.Filter.Eval(r)) {
				return nil
			}
		case "project":
			r = EvalAll(op.Project, r)
		case "hashjoin":
			table := e.tables[op.HJ.Input]
			if table == nil {
				return fmt.Errorf("relop: hash join against unknown build input %q", op.HJ.Input)
			}
			// The key scratch is consumed by the map lookup before any
			// deeper join can overwrite it.
			e.keyVals = EvalAllInto(e.keyVals, op.HJ.ProbeKeys, r)
			e.keyScratch = row.EncodeKey(e.keyScratch[:0], e.keyVals...)
			matches := table[string(e.keyScratch)]
			for len(e.joinRows) <= depth {
				e.joinRows = append(e.joinRows, nil)
			}
			for _, build := range matches {
				joined := e.joinRows[depth][:0]
				joined = append(append(joined, r...), build...)
				e.joinRows[depth] = joined
				if err := e.runPipe(joined, i+1, depth+1); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("relop: unknown pipe op %q", op.Kind)
		}
	}
	return e.terminal(r)
}

// terminal writes one record per row. (A broadcast emit writes the row
// too; the batch engine frames batches there, which the identity trials
// compare row by row after decoding the frames.)
func (e *emitter) terminal(r row.Row) error {
	if e.spec.SampleRate > 0 && !sampledRow(r, e.spec.SampleRate) {
		return nil
	}
	e.count++
	switch e.spec.Kind {
	case EmitShuffle:
		key := e.shuffleKey(r)
		val := e.valScratch[:0]
		if e.spec.Tag >= 0 {
			val = append(val, byte(e.spec.Tag))
		}
		val = row.Encode(val, r)
		e.valScratch = val
		return e.writer.Write(key, val)
	case EmitBroadcast, EmitSink:
		e.valScratch = row.Encode(e.valScratch[:0], r)
		return e.writer.Write(nil, e.valScratch)
	case EmitInitializer, EmitVM:
		e.deferred = append(e.deferred, e.spec.Keys[0].Eval(r))
		return nil
	}
	return fmt.Errorf("relop: unknown emit kind %q", e.spec.Kind)
}

// shuffleKey builds the orderable key with per-column direction into a
// reused buffer (descending segments are flipped in place).
func (e *emitter) shuffleKey(r row.Row) []byte {
	key := e.keyScratch[:0]
	for i, kx := range e.spec.Keys {
		start := len(key)
		key = row.EncodeKey(key, kx.Eval(r))
		if i < len(e.spec.Desc) && e.spec.Desc[i] {
			row.FlipKey(key[start:])
		}
	}
	e.keyScratch = key
	return key
}

func sampledRow(r row.Row, rate float64) bool {
	h := fnv.New32a()
	_, _ = h.Write(row.Encode(nil, r))
	return float64(h.Sum32()%1000000) < rate*1000000
}

// observe folds one argument, row at a time, into every field of the
// state: count, the exact sum, and min and max under row.CompareTotal.
func (st *aggState) observe(av row.Value) {
	if !av.IsNull() {
		st.count++
		st.addValue(av)
		st.observeExtremes(av, av)
	}
}

// aggGroup computes the aggregates of one group, row at a time.
func (p *stageProcessor) aggGroup(g *GroupOp, values [][]byte, emit func(row.Row) error) error {
	states := make([]aggState, len(g.Aggs))
	var groupVals row.Row
	for _, v := range values {
		r, err := row.Decode(v)
		if err != nil {
			return err
		}
		if groupVals == nil {
			groupVals = r[:g.GroupWidth].Clone()
		}
		for i, a := range g.Aggs {
			var av row.Value
			if a.Col >= 0 && a.Col < len(r) {
				av = r[a.Col]
			}
			states[i].observe(av)
		}
	}
	out, err := finalizeAgg(g, groupVals, states)
	if err != nil {
		return err
	}
	return emit(out)
}

// finalizeAgg appends the aggregate outputs to the group key columns.
func finalizeAgg(g *GroupOp, groupVals row.Row, states []aggState) (row.Row, error) {
	out := groupVals.Clone()
	for i, a := range g.Aggs {
		st := states[i]
		switch a.Func {
		case "sum":
			if st.count == 0 {
				out = append(out, row.Null())
			} else {
				out = append(out, row.Float(st.sum(1)))
			}
		case "count":
			out = append(out, row.Int(st.count))
		case "avg":
			if st.count == 0 {
				out = append(out, row.Null())
			} else {
				out = append(out, row.Float(st.sum(st.count)))
			}
		case "min":
			out = append(out, st.min)
		case "max":
			out = append(out, st.max)
		default:
			return nil, fmt.Errorf("relop: unknown aggregate %q", a.Func)
		}
	}
	return out, nil
}

// joinGroup splits tagged values by side and emits the cartesian product.
func (p *stageProcessor) joinGroup(g *GroupOp, values [][]byte, emit func(row.Row) error) error {
	sides := make([][]row.Row, g.Sides)
	for _, v := range values {
		if len(v) == 0 {
			return fmt.Errorf("relop: untagged join value")
		}
		tag := int(v[0])
		if tag >= g.Sides {
			return fmt.Errorf("relop: join tag %d out of %d sides", tag, g.Sides)
		}
		r, err := row.Decode(v[1:])
		if err != nil {
			return err
		}
		sides[tag] = append(sides[tag], r)
	}
	for _, s := range sides {
		if len(s) == 0 {
			return nil // inner join: some side empty
		}
	}
	var rec func(i int, acc row.Row) error
	rec = func(i int, acc row.Row) error {
		if i == len(sides) {
			return emit(acc)
		}
		for _, r := range sides[i] {
			next := append(acc.Clone(), r...)
			if err := rec(i+1, next); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, row.Row{})
}

// refSum is the math/big reference for a sum (div 1) or an average (div
// the argument count) of non-null arguments: NaN if one is a NaN or both
// infinities occur, else the infinity that occurs, else the exact
// rational sum of the ints and the finite floats (a string adds 0)
// divided by div and rounded once to the nearest float64, ties to even
// (big.Rat.Float64), an exact zero as +0.
func refSum(vals []row.Value, div int64) float64 {
	var nan, pos, neg bool
	sum := new(big.Rat)
	for _, v := range vals {
		switch {
		case v.Kind == row.KindInt:
			sum.Add(sum, new(big.Rat).SetInt64(v.Int))
		case v.Kind != row.KindFloat:
		case math.IsNaN(v.Float):
			nan = true
		case math.IsInf(v.Float, 1):
			pos = true
		case math.IsInf(v.Float, -1):
			neg = true
		default:
			sum.Add(sum, new(big.Rat).SetFloat64(v.Float))
		}
	}
	switch {
	case nan || pos && neg:
		return math.NaN()
	case pos:
		return math.Inf(1)
	case neg:
		return math.Inf(-1)
	}
	f, _ := sum.Quo(sum, new(big.Rat).SetInt64(div)).Float64()
	return f
}

// refExtremes is the reference min and max of non-null arguments: the
// first and last under the order of their key bytes (row.EncodeKey), then
// ints before floats, then ints by value.
func refExtremes(vals []row.Value) (mn, mx row.Value) {
	if len(vals) == 0 {
		return row.Null(), row.Null()
	}
	sorted := slices.Clone(vals)
	slices.SortFunc(sorted, func(a, b row.Value) int {
		if c := bytes.Compare(row.EncodeKey(nil, a), row.EncodeKey(nil, b)); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
			return c
		}
		return cmp.Compare(a.Int, b.Int)
	})
	return sorted[0], sorted[len(sorted)-1]
}

// refAggRow is the reference result of aggregate fn over a group's
// arguments, nulls among them: count counts the non-null ones, a sum or
// average of none is null.
func refAggRow(fn string, args []row.Value) row.Value {
	var vals []row.Value
	for _, v := range args {
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	mn, mx := refExtremes(vals)
	switch {
	case fn == "count":
		return row.Int(int64(len(vals)))
	case fn == "min":
		return mn
	case fn == "max":
		return mx
	case len(vals) == 0:
		return row.Null()
	case fn == "sum":
		return row.Float(refSum(vals, 1))
	}
	return row.Float(refSum(vals, int64(len(vals))))
}

// refGroups groups rows by the key bytes of their group values, in order
// of first appearance, keeping the first row's values as the group's and
// every row's aggregate arguments (the oracle's Expr.Eval; count(*)
// counts a 1).
type refGroups struct {
	index map[string]int
	keys  []row.Row
	args  [][][]row.Value // group, aggregate, argument
}

func (g *refGroups) add(key, r row.Row, aggs []AggDef) {
	k := string(row.EncodeKey(nil, key...))
	i, ok := g.index[k]
	if !ok {
		if g.index == nil {
			g.index = map[string]int{}
		}
		i = len(g.keys)
		g.index[k] = i
		g.keys = append(g.keys, key)
		g.args = append(g.args, make([][]row.Value, len(aggs)))
	}
	for j, a := range aggs {
		v := row.Int(1)
		if a.Arg != nil {
			v = a.Arg.Eval(r)
		}
		g.args[i][j] = append(g.args[i][j], v)
	}
}

// rows returns each group's values followed by refAggRow's results.
func (g *refGroups) rows(aggs []AggDef) []row.Row {
	var out []row.Row
	for i, key := range g.keys {
		r := append(row.Row{}, key...)
		for j, a := range aggs {
			r = append(r, refAggRow(a.Func, g.args[i][j]))
		}
		out = append(out, r)
	}
	return out
}

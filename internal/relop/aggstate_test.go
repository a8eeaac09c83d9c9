package relop

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tez/internal/col"
	"tez/internal/row"
)

// Tests of the aggregate states (aggstate.go): every result is the
// math/big reference's (oracle_test.go), bit for bit, whatever order the
// arguments fold in and however they are split into partial states.

// edgeFloats are the floats a sum must get right: zeros of both signs,
// the infinities, NaN, the extremes of the range and the subnormals.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.2250738585072014e-308, -2.2250738585072009e-308, 1e308, -1e308, 1e-300, 1, -1, 0.1,
}

// randAggValue draws an argument of the given shape: 0 floats only, 1 ints
// only, 2 anything (nulls and strings too).
func randAggValue(rng *rand.Rand, shape int) row.Value {
	if shape == 2 {
		switch rng.Intn(6) {
		case 0:
			return row.Null()
		case 1:
			return row.String([]string{"", "a", "b\x00"}[rng.Intn(3)])
		}
		shape = rng.Intn(2)
	}
	if shape == 1 {
		switch rng.Intn(4) {
		case 0:
			return row.Int([]int64{math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 1, -(1<<53 + 1)}[rng.Intn(5)])
		default:
			return row.Int(rng.Int63n(2001) - 1000)
		}
	}
	switch rng.Intn(5) {
	case 0:
		return row.Float(edgeFloats[rng.Intn(len(edgeFloats))])
	case 1: // any exponent
		return row.Float(math.Float64frombits(rng.Uint64()))
	case 2: // a subnormal
		return row.Float(math.Float64frombits(rng.Uint64()&(1<<52-1) | rng.Uint64()&(1<<63)))
	default:
		return row.Float(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
	}
}

// foldArgs folds args through observeChunk in chunks of 1–8 rows of a
// one-column batch (typed when the args are, else boxed).
func foldArgs(rng *rand.Rand, st *aggState, args []row.Value) {
	b := col.NewBatch()
	for _, v := range args {
		b.AppendRow(row.Row{v})
	}
	for lo := 0; lo < len(args); {
		hi := min(len(args), lo+1+rng.Intn(8))
		observeChunk(st, b.Col(0), lo, hi, aggNeed{sum: true, mm: true})
		lo = hi
	}
}

// stateFuncs are the aggregates a state serves.
var stateFuncs = []string{"count", "sum", "avg", "min", "max"}

// refResults encodes the reference's result of each of stateFuncs over args.
func refResults(args []row.Value) [][]byte {
	var out [][]byte
	for _, fn := range stateFuncs {
		out = append(out, row.Encode(nil, row.Row{refAggRow(fn, args)}))
	}
	return out
}

// checkState compares what a state writes for each of stateFuncs with the
// reference's results.
func checkState(t *testing.T, what string, st *aggState, want [][]byte) {
	t.Helper()
	for i, fn := range stateFuncs {
		g := &GroupOp{Aggs: []AggFuncSpec{{Func: fn}}}
		em, w := sinkEmitter(DefaultBatchSize)
		if err := writeAggRow([]*vecEmitter{em}, g, col.NewBatch(), 0, []aggState{*st}); err != nil {
			t.Fatal(err)
		}
		if err := em.close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.kvs[0].val, want[i]) {
			got, _ := row.Decode(w.kvs[0].val)
			ref, _ := row.Decode(want[i])
			t.Fatalf("%s: %s = %v (%x), reference %v (%x)", what, fn, got, w.kvs[0].val, ref, want[i])
		}
	}
}

// TestAggStatesAreOrderFree: over random multisets — floats of every
// exponent, subnormals, ±0, ±Inf, NaN, cancellations such as 1e308,
// -1e308, 1e-300, ints up to the int64 extremes, strings and nulls —
// every permutation folded in chunks, and every split into partial states
// encoded, decoded and merged in any order, gives the reference's count,
// sum, avg, min and max bit for bit.
func TestAggStatesAreOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := [][]row.Value{
		{row.Float(1e308), row.Float(-1e308), row.Float(1e-300)},
		{row.Float(math.MaxFloat64), row.Float(math.MaxFloat64), row.Float(-math.MaxFloat64)},
		{row.Float(0.1), row.Float(0.2), row.Float(0.3)},
		{row.Float(math.Copysign(0, -1)), row.Float(math.Copysign(0, -1))},
		{row.Float(math.SmallestNonzeroFloat64), row.Float(math.SmallestNonzeroFloat64), row.Float(1)},
		{row.Int(math.MaxInt64), row.Int(math.MaxInt64), row.Float(0.5)},
		{row.Int(1), row.Float(1), row.Float(math.NaN()), row.Int(1 << 60)},
	}
	// A float sum rounds from its leading chunks and a sticky bit
	// (floatAcc.round): halfway cases, with a tie breaker in the last of
	// those chunks or far below them, the subnormal boundary, sums past
	// MaxFloat64, negative sums.
	ulp := math.Ldexp(1, -52)
	for _, xs := range [][]float64{
		{1, -1},
		{1 << 53, 1},
		{1 << 53, 1, 0x1p-14},
		{1 << 53, 1, math.SmallestNonzeroFloat64},
		{1 << 53, 1, -math.SmallestNonzeroFloat64},
		{1<<53 + 2, 1},
		{-1, -ulp / 2, -1e-300},
		{1 + ulp, ulp / 2},
		{math.MaxFloat64, math.Ldexp(1, 970)},
		{math.MaxFloat64, math.Ldexp(1, 970), -math.SmallestNonzeroFloat64},
		{math.MaxFloat64, math.Ldexp(1, 969)},
		{2.2250738585072014e-308, -math.SmallestNonzeroFloat64},
		{math.Ldexp(1, -1022), -math.Ldexp(1, -1023)},
	} {
		var args []row.Value
		for _, x := range xs {
			args = append(args, row.Float(x))
		}
		cases = append(cases, args)
	}
	for trial := 0; trial < 400; trial++ {
		shape := trial % 3
		args := make([]row.Value, rng.Intn(60))
		for i := range args {
			args[i] = randAggValue(rng, shape)
			if i > 0 && rng.Intn(6) == 0 && args[i-1].Kind == row.KindFloat {
				args[i] = row.Float(-args[i-1].Float) // cancels
			}
		}
		cases = append(cases, args)
	}
	for c, args := range cases {
		want := refResults(args)
		for perm := 0; perm < 4; perm++ {
			rng.Shuffle(len(args), func(i, j int) { args[i], args[j] = args[j], args[i] })
			var whole aggState
			foldArgs(rng, &whole, args)
			checkState(t, fmt.Sprintf("case %d perm %d whole", c, perm), &whole, want)

			// Split into 1–4 partial states, encoded, merged in reverse.
			parts := 1 + rng.Intn(4)
			var wire [][]byte
			for p := 0; p < parts; p++ {
				var st aggState
				var share []row.Value
				for i := p; i < len(args); i += parts {
					share = append(share, args[i])
				}
				foldArgs(rng, &st, share)
				wire = append(wire, st.appendPartial(nil, aggNeed{sum: true, mm: true}))
			}
			var merged aggState
			for p := len(wire) - 1; p >= 0; p-- {
				if err := merged.mergePartial(wire[p]); err != nil {
					t.Fatalf("case %d: partial %x: %v", c, wire[p], err)
				}
			}
			checkState(t, fmt.Sprintf("case %d perm %d merged from %d", c, perm, parts), &merged, want)
		}
	}
}

// TestFloatSumCarriesInBulk: a column folded in one run carries as it
// goes (addFloats) and keeps every chunk it touched before a carry: a
// half whose chunk no later term touches survives 2 048 terms of ±1e20
// that cancel, as it does added one float at a time.
func TestFloatSumCarriesInBulk(t *testing.T) {
	xs := []float64{0.5}
	for range accCarryEvery {
		xs = append(xs, 1e20, -1e20)
	}
	var bulk, one aggState
	bulk.addFloats(xs)
	for _, x := range xs {
		one.addFloat(x)
	}
	if b, o := bulk.sum(1), one.sum(1); b != 0.5 || o != 0.5 {
		t.Fatalf("sum of 0.5 and %d cancelling terms: bulk %v, one at a time %v", len(xs)-1, b, o)
	}
}

// TestPartialSumIsCompact: a partial float sum carries only the chunks
// its value spans, whatever its sign: at most three for a sum of a few
// like-sized floats, where a borrow carried up through the accumulator
// would write one per chunk above them.
func TestPartialSumIsCompact(t *testing.T) {
	for _, xs := range [][]float64{{0.1}, {-0.1}, {-1e300, 2e299}, {-math.SmallestNonzeroFloat64}, {1 << 40, -1, 0.5}} {
		var st aggState
		for _, x := range xs {
			st.addFloat(x)
		}
		wire := st.appendPartial(nil, aggNeed{sum: true})
		if n := wire[2]; n > 3 {
			t.Errorf("sum of %v: %d chunks on the wire (%d bytes)", xs, n, len(wire))
		}
	}
}

// TestPartialStatesRefuseCorruption: a partial state that is cut short,
// has bytes left over, or carries an unknown flag, an unsorted or
// oversized chunk, or a null extreme is an error, never a panic.
func TestPartialStatesRefuseCorruption(t *testing.T) {
	var st aggState
	st.count = 3
	st.addInt(-7)
	st.addFloat(0.25)
	st.addFloat(1e300)
	st.observeExtremes(row.Int(-7), row.Float(1e300))
	good := st.appendPartial(nil, aggNeed{sum: true, mm: true})
	var dst aggState
	if err := dst.mergePartial(good); err != nil {
		t.Fatalf("good state refused: %v", err)
	}
	bad := [][]byte{
		nil,
		{0x40},                       // an unknown flag
		{hasFloat, 1, 2, 1, 2, 0, 2}, // chunks out of order
		{hasFloat, 1, 1, 70, 2},      // a chunk past the accumulator
		{hasFloat, 1, 1, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // a chunk past ±2^33
		{hasExtremes, 1, byte(row.KindNull), byte(row.KindNull)},
		append(append([]byte{}, good...), 0),
	}
	for i := 1; i < len(good); i++ {
		bad = append(bad, good[:i])
	}
	for _, b := range bad {
		if err := dst.mergePartial(b); err == nil {
			t.Errorf("partial %x accepted", b)
		}
	}
}

// FuzzPartialState decodes a partial state that crossed an edge: any
// input is an error or a state, never a panic, and a state it accepts
// re-encodes to one that decodes to the same results.
func FuzzPartialState(f *testing.F) {
	var st aggState
	st.count = 2
	st.addInt(5)
	st.addFloat(-0.5)
	st.observeExtremes(row.String("a"), row.String("b"))
	f.Add(st.appendPartial(nil, aggNeed{sum: true, mm: true}))
	f.Add(st.appendPartial(nil, aggNeed{}))
	f.Add([]byte{sawNaN | sawPosInf, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var a, b aggState
		if err := a.mergePartial(data); err != nil {
			return
		}
		if err := b.mergePartial(a.appendPartial(nil, aggNeed{sum: true, mm: true})); err != nil {
			t.Fatalf("re-encoded state refused: %v", err)
		}
		if a.count != b.count || row.CompareTotal(a.min, b.min) != 0 || row.CompareTotal(a.max, b.max) != 0 {
			t.Fatalf("re-encoded state differs")
		}
		for _, div := range []int64{1, a.count} {
			if div != 0 && math.Float64bits(a.sum(div)) != math.Float64bits(b.sum(div)) {
				t.Fatalf("re-encoded sum/%d differs", div)
			}
		}
	})
}

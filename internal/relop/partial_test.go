package relop

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tez/internal/row"
	"tez/internal/runtime"
)

// Tests of partial aggregation at the producers (partial.go): whatever the
// batch size, the table's group cap, the producers' split of the rows and
// the edge, the agg stage's merged answer is the math/big reference's.

// randPartialArg draws an aggregate argument: an int, a float (±0, NaN,
// ±Inf among them), a string or a null; kind-mixed when mixed.
func randPartialArg(rng *rand.Rand, kind int) row.Value {
	switch {
	case rng.Intn(7) == 0:
		return row.Null()
	case kind == 3:
		kind = rng.Intn(3)
	}
	switch kind {
	case 0:
		return row.Int(rng.Int63n(41) - 20)
	case 1:
		if rng.Intn(4) == 0 {
			return row.Float([]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308}[rng.Intn(7)])
		}
		return row.Float(float64(rng.Intn(2001)-1000) / 7)
	}
	return row.String([]string{"", "a", "b\x00", "bb"}[rng.Intn(4)])
}

// TestPartialAggregationRandom: producers pre-aggregate random rows at
// batch sizes 1–8 with their table capped at 1, 2, 3 or the default
// number of groups, and write to an ordered edge and to a hash edge of
// 1–3 partitions; hashFolds merge the partial states at batch sizes 1–8,
// the ordered edge's sorted groups under the same cap, never holding
// more. Both answers must be the reference's, row bytes for row bytes.
func TestPartialAggregationRandom(t *testing.T) {
	defer func(c int) { partialGroupCap = c }(partialGroupCap)
	rng := rand.New(rand.NewSource(61))
	funcs := []string{"sum", "count", "min", "max", "avg"}
	for trial := 0; trial < 160; trial++ {
		partialGroupCap = []int{1, 2, 3, 1 << 12}[trial%4]
		size := 1 + rng.Intn(8)
		gw := 1 + rng.Intn(2)
		na := 1 + rng.Intn(4)
		argKinds := make([]int, na)
		g := &GroupOp{Kind: "agg", GroupWidth: gw, Partial: true}
		var defs []AggDef
		for i := range argKinds {
			argKinds[i] = rng.Intn(4)
			fn := funcs[rng.Intn(len(funcs))]
			g.Aggs = append(g.Aggs, AggFuncSpec{Func: fn, Col: gw + i})
			defs = append(defs, AggDef{Func: fn, Arg: Col(gw + i)})
		}
		keys := make([]*Expr, gw)
		for c := range keys {
			keys[c] = Col(c)
		}
		n := rng.Intn(80)
		var rows []row.Row
		for i := 0; i < n; i++ {
			r := row.Row{row.Int(int64(rng.Intn(5))), row.String(fmt.Sprint("k", rng.Intn(3)))}[:gw]
			if rng.Intn(8) == 0 {
				r[0] = row.Null()
			}
			for _, k := range argKinds {
				r = append(r, randPartialArg(rng, k))
			}
			rows = append(rows, r)
		}
		var ref refGroups
		for _, r := range rows {
			ref.add(r[:gw], r, defs)
		}
		want := ref.rows(defs)
		slices.SortFunc(want, func(a, b row.Row) int {
			return bytes.Compare(row.EncodeKey(nil, a[:gw]...), row.EncodeKey(nil, b[:gw]...))
		})

		// Producers: 1–3 tasks, each over a share of the rows, writing to
		// an ordered edge and to a hash edge.
		parts := 1 + rng.Intn(3)
		ordered := &captureWriter{}
		hashed := &framesWriter{n: parts, frames: make([][]capturedKV, parts)}
		spec := EmitSpec{Kind: EmitShuffle, Keys: keys, Tag: -1, Aggs: g.Aggs}
		cuts := []int{0, rng.Intn(len(rows) + 1), rng.Intn(len(rows) + 1), len(rows)}
		slices.Sort(cuts)
		for task := 0; task+1 < len(cuts); task++ {
			lo, hi := cuts[task], cuts[task+1]
			for _, w := range []runtime.KVWriter{ordered, hashed} {
				ve := newVecEmitter(spec, w, nil, size)
				for _, r := range rows[lo:hi] {
					if err := ve.add(row.Encode(nil, r)); err != nil {
						t.Fatal(err)
					}
				}
				if err := ve.flush(); err != nil {
					t.Fatal(err)
				}
				if err := ve.close(); err != nil {
					t.Fatal(err)
				}
			}
		}

		// Consumers: the ordered edge's groups, folded under the same cap,
		// and each hash partition, through a hashFold each.
		em, w := sinkEmitter(size)
		if err := foldSorted(g, 1+rng.Intn(8), orderedGroups(ordered.kvs), []*vecEmitter{em}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := em.close(); err != nil {
			t.Fatal(err)
		}
		checkPartialRows(t, fmt.Sprintf("trial %d ordered", trial), w.kvs, want)

		em, w = sinkEmitter(size)
		for _, frames := range hashed.frames {
			f, err := getHashFold(g, 1+rng.Intn(8))
			if err != nil {
				t.Fatal(err)
			}
			if err := f.addInputs([]hashInput{{kv: &recordReader{recs: frames}, keys: keys}}); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := f.emit([]*vecEmitter{em}); err != nil {
				t.Fatal(err)
			}
			hashFolds.Put(f)
		}
		if err := em.close(); err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(w.kvs, func(a, b capturedKV) int { return bytes.Compare(a.val, b.val) })
		slices.SortFunc(want, func(a, b row.Row) int { return bytes.Compare(row.Encode(nil, a), row.Encode(nil, b)) })
		checkPartialRows(t, fmt.Sprintf("trial %d hash", trial), w.kvs, want)
	}
}

// checkPartialRows compares written rows with the reference's, in order.
func checkPartialRows(t *testing.T, what string, got []capturedKV, want []row.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if w := row.Encode(nil, want[i]); !bytes.Equal(got[i].val, w) {
			r, _ := row.Decode(got[i].val)
			t.Fatalf("%s row %d: %v, reference %v", what, i, r, want[i])
		}
	}
}

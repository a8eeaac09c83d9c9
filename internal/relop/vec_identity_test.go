package relop

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tez/internal/am"
	"tez/internal/col"
	"tez/internal/row"
	"tez/internal/runtime"
	"tez/internal/testutil"
)

// The batch engine's contract is byte-identity with the row-at-a-time
// oracle (oracle_test.go): for any pipeline and any data — nulls,
// kind-mixed columns, NaN, -0.0, strings with embedded zero bytes, empty
// batches, ragged widths — it must write exactly the bytes the oracle
// writes. These tests drive both over randomized plans and data and
// compare every (key, value) pair.

type capturedKV struct {
	key []byte
	val []byte
}

type captureWriter struct {
	kvs []capturedKV
}

func (w *captureWriter) Write(key, value []byte) error {
	w.kvs = append(w.kvs, capturedKV{key: append([]byte{}, key...), val: append([]byte{}, value...)})
	return nil
}

func randVecValue(rng *rand.Rand) row.Value {
	switch rng.Intn(10) {
	case 0, 1:
		return row.Null()
	case 2, 3, 4:
		return row.Int(int64(rng.Intn(9) - 4))
	case 5:
		switch rng.Intn(4) {
		case 0:
			return row.Float(math.Copysign(0, -1)) // -0.0
		case 1:
			return row.Float(math.NaN())
		default:
			return row.Float(float64(rng.Intn(7)) / 2)
		}
	case 6:
		return row.Float(float64(rng.Intn(9) - 4))
	case 7:
		return row.String("")
	case 8:
		return row.String(string([]byte{'k', 0x00, byte(rng.Intn(3))}))
	default:
		return row.String(fmt.Sprintf("s%d", rng.Intn(5)))
	}
}

func randVecRow(rng *rand.Rand, w int) row.Row {
	r := make(row.Row, w)
	for i := range r {
		r[i] = randVecValue(rng)
	}
	return r
}

// randVecExpr builds an expression over a width-w row, occasionally
// referencing out-of-range columns and unknown operators (both have
// defined row-path semantics the batch path must match).
func randVecExpr(rng *rand.Rand, w, depth int) *Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(4) == 0 {
			return Lit(randVecValue(rng))
		}
		return Col(rng.Intn(w+2) - 1) // may be -1 or w (out of range)
	}
	switch rng.Intn(5) {
	case 0:
		ops := []string{"=", "!=", "<", "<=", ">", ">=", "~"}
		return Cmp(ops[rng.Intn(len(ops))], randVecExpr(rng, w, depth-1), randVecExpr(rng, w, depth-1))
	case 1:
		return And(randVecExpr(rng, w, depth-1), randVecExpr(rng, w, depth-1))
	case 2:
		return Or(randVecExpr(rng, w, depth-1), randVecExpr(rng, w, depth-1))
	case 3:
		return Not(randVecExpr(rng, w, depth-1))
	default:
		ops := []string{"+", "-", "*", "/", "%"}
		return Arith(ops[rng.Intn(len(ops))], randVecExpr(rng, w, depth-1), randVecExpr(rng, w, depth-1))
	}
}

// runPipeIdentityTrial builds a random emit spec and streams random rows
// through the oracle and the batch engine, asserting identical writes,
// counts and deferred control values. A fanOut trial probes a table with
// at least 40 build rows per key at a batch size of at most 8 and also
// asserts that no batch reaching the terminal exceeds the batch size.
func runPipeIdentityTrial(t *testing.T, rng *rand.Rand, trial int, fanOut bool) {
	t.Helper()
	width := 1 + rng.Intn(4)
	curWidth := width

	var pipe []PipeOp
	tables := map[string]map[string][]row.Row{} // the oracle's
	joins := map[string]*joinTable{}
	addJoin := func() {
		bw := 1 + rng.Intn(3)
		ragged := rng.Intn(3) == 0 // widths differ under one key and across keys
		table := map[string][]row.Row{}
		var build []row.Row
		nbuild := 5 + rng.Intn(10)
		if fanOut {
			nbuild = 3 * (40 + rng.Intn(10))
		}
		for i := 0; i < nbuild; i++ {
			w := bw
			if ragged {
				w = 1 + rng.Intn(3)
			}
			br := randVecRow(rng, w)
			if fanOut {
				br[0] = row.Int(int64(i % 3))
			}
			// The engine's table leaves a NULL key out, so the oracle's does.
			if key := row.EncodeKey(nil, br[0]); !br[0].IsNull() {
				table[string(key)] = append(table[string(key)], br)
			}
			build = append(build, br)
		}
		tables["b0"], joins["b0"] = table, buildJoinTable(t, build)
		pipe = append(pipe, PipeOp{Kind: "hashjoin", HJ: &HashJoinSpec{
			Input: "b0", ProbeKeys: []*Expr{Col(0)},
		}})
		// Downstream expressions are sized for the widest joined row; a
		// narrower one reads its missing columns as null on both sides.
		curWidth += 3
	}
	if fanOut {
		addJoin()
	}
	for len(pipe) < 3 && rng.Intn(2) == 0 {
		switch rng.Intn(3) {
		case 0:
			pipe = append(pipe, PipeOp{Kind: "filter", Filter: randVecExpr(rng, curWidth, 2)})
		case 1:
			nw := 1 + rng.Intn(4)
			proj := make([]*Expr, nw)
			for i := range proj {
				proj[i] = randVecExpr(rng, curWidth, 2)
			}
			pipe = append(pipe, PipeOp{Kind: "project", Project: proj})
			curWidth = nw
		default:
			if _, dup := tables["b0"]; dup {
				continue
			}
			addJoin()
		}
	}

	spec := EmitSpec{Input: "in", Pipe: pipe, Tag: -1}
	switch kind := rng.Intn(5); {
	case fanOut || kind == 0:
		// One frame per terminal call: the frames show the batch sizes.
		spec.Kind = EmitBroadcast
		spec.Output = "bcast"
	case kind == 1:
		spec.Kind = EmitShuffle
		spec.Output = "shuf"
		nk := 1 + rng.Intn(2)
		for i := 0; i < nk; i++ {
			spec.Keys = append(spec.Keys, randVecExpr(rng, curWidth, 1))
			spec.Desc = append(spec.Desc, rng.Intn(2) == 0)
		}
		if rng.Intn(3) == 0 {
			spec.Tag = rng.Intn(2)
		}
	case kind == 2:
		spec.Kind = EmitSink
		spec.Output = "sink"
	default:
		spec.Kind = []string{EmitInitializer, EmitVM}[kind-3]
		spec.Output = "target"
		spec.Keys = []*Expr{randVecExpr(rng, curWidth, 1)}
	}
	if rng.Intn(4) == 0 {
		spec.SampleRate = []float64{0.1, 0.5, 1}[rng.Intn(3)]
	}
	if err := validateEmit(&spec); err != nil {
		t.Fatalf("trial %d: generated spec invalid: %v", trial, err)
	}

	batchSize := 1 + rng.Intn(16)
	if fanOut {
		batchSize = 1 + rng.Intn(8)
	} else if rng.Intn(4) == 0 {
		batchSize = DefaultBatchSize
	}
	rowW, vecW := &captureWriter{}, &captureWriter{}
	rowEm := &emitter{spec: spec, writer: rowW, tables: tables}
	vecEm := newVecEmitter(spec, vecW, joins, batchSize)

	nrows := rng.Intn(120) // 0 exercises the empty-input flush
	var enc []byte
	for i := 0; i < nrows; i++ {
		w := width
		if rng.Intn(40) == 0 {
			w = 1 + rng.Intn(4) // width change mid-stream forces an early flush
		}
		r := randVecRow(rng, w)
		if fanOut {
			r[0] = row.Int(int64(rng.Intn(4))) // 3 means no match
		}
		if err := rowEm.emit(r); err != nil {
			t.Fatalf("trial %d row path: %v", trial, err)
		}
		enc = row.Encode(enc[:0], r)
		if err := vecEm.add(enc); err != nil {
			t.Fatalf("trial %d vec path: %v", trial, err)
		}
	}
	if err := vecEm.flush(); err != nil {
		t.Fatalf("trial %d vec flush: %v", trial, err)
	}

	vecKVs := vecW.kvs
	if spec.Kind == EmitBroadcast {
		// Unpack the frames into the per-row records the oracle writes.
		vecKVs = nil
		for _, kv := range vecW.kvs {
			b, err := col.DecodeBatch(kv.val)
			if err != nil {
				t.Fatalf("trial %d: broadcast frame: %v", trial, err)
			}
			if b.Len() == 0 || b.Len() > batchSize {
				t.Fatalf("trial %d: terminal got a batch of %d rows, batch size %d", trial, b.Len(), batchSize)
			}
			for i := 0; i < b.Len(); i++ {
				vecKVs = append(vecKVs, capturedKV{val: row.Encode(nil, b.MaterializeRow(i))})
			}
		}
	}
	if rowEm.count != vecEm.count {
		t.Fatalf("trial %d: row path emitted %d, vec path %d", trial, rowEm.count, vecEm.count)
	}
	if len(rowW.kvs) != len(vecKVs) {
		t.Fatalf("trial %d: row path wrote %d records, vec path %d", trial, len(rowW.kvs), len(vecKVs))
	}
	for i := range rowW.kvs {
		if !bytes.Equal(rowW.kvs[i].key, vecKVs[i].key) {
			t.Fatalf("trial %d record %d: key mismatch\nrow: %x\nvec: %x", trial, i, rowW.kvs[i].key, vecKVs[i].key)
		}
		if !bytes.Equal(rowW.kvs[i].val, vecKVs[i].val) {
			t.Fatalf("trial %d record %d: value mismatch\nrow: %x\nvec: %x", trial, i, rowW.kvs[i].val, vecKVs[i].val)
		}
	}
	if len(rowEm.deferred) != len(vecEm.deferred) {
		t.Fatalf("trial %d: row path deferred %d values, vec path %d", trial, len(rowEm.deferred), len(vecEm.deferred))
	}
	for i := range rowEm.deferred {
		a := row.Encode(nil, row.Row{rowEm.deferred[i]})
		b := row.Encode(nil, row.Row{vecEm.deferred[i]})
		if !bytes.Equal(a, b) {
			t.Fatalf("trial %d deferred value %d: row %v vec %v", trial, i, rowEm.deferred[i], vecEm.deferred[i])
		}
	}
}

// buildJoinTable builds the join table of rows keyed by column 0 as a
// task builds one: from col.EncodeBatch frames, a frame per run of rows
// of one width.
func buildJoinTable(t *testing.T, rows []row.Row) *joinTable {
	t.Helper()
	var frames []keyedFrame
	b := col.NewBatch()
	for i, r := range rows {
		if !b.AppendRow(r) {
			frames = append(frames, keyedFrame{col.EncodeBatch(nil, b), []*Expr{Col(0)}})
			b = col.NewBatch()
			b.AppendRow(r)
		}
		if i == len(rows)-1 {
			frames = append(frames, keyedFrame{col.EncodeBatch(nil, b), []*Expr{Col(0)}})
		}
	}
	jt := newJoinTable()
	if err := jt.build(frames, jt.keys.add, nil); err != nil {
		t.Fatal(err)
	}
	return jt
}

func TestVecPipeIdentityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		runPipeIdentityTrial(t, rng, trial, trial%10 == 9)
	}
}

// sinkEmitter is a pipeline-less sink emit at batch size size, with the
// writer that records what it writes.
func sinkEmitter(size int) (*vecEmitter, *captureWriter) {
	w := &captureWriter{}
	return newVecEmitter(EmitSpec{Kind: EmitSink, Output: "sink", Tag: -1}, w, nil, size), w
}

// sameRecords fails unless the two writers hold the same records.
func sameRecords(t *testing.T, what string, want, got []capturedKV) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: oracle wrote %d records, batch engine %d", what, len(want), len(got))
	}
	for i := range want {
		if !bytes.Equal(want[i].key, got[i].key) || !bytes.Equal(want[i].val, got[i].val) {
			t.Fatalf("%s record %d:\noracle: %x %x\nbatch:  %x %x", what, i, want[i].key, want[i].val, got[i].key, got[i].val)
		}
	}
}

// TestVecAggIdentityRandom byte-compares the agg stage's fold with the
// oracle's aggGroup over random groups: several groups a trial folded at
// batch sizes 1–8, so groups start mid-batch and span flushes, and rows
// whose width changes mid-group (never below the group key). Float sums
// are compared bit for bit: both fold in value order.
func TestVecAggIdentityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	funcs := []string{"sum", "count", "min", "max", "avg"}
	// One emitter for every trial: it is reused from group to group in a
	// task.
	em, vecW := sinkEmitter(3)
	for trial := 0; trial < 150; trial++ {
		gw := rng.Intn(3)
		extra := 1 + rng.Intn(3)
		width := gw + extra
		g := &GroupOp{Kind: "agg", GroupWidth: gw}
		for i := 0; i < 1+rng.Intn(4); i++ {
			g.Aggs = append(g.Aggs, AggFuncSpec{
				Func: funcs[rng.Intn(len(funcs))],
				Col:  rng.Intn(width+2) - 1, // may be out of range
			})
		}
		var rowOut []capturedKV
		vecW.kvs = nil
		size := 1 + rng.Intn(8)
		var groups [][][]byte
		p := &stageProcessor{}
		for grp := 1 + rng.Intn(6); grp > 0; grp-- {
			var values [][]byte
			for i := 0; i < 1+rng.Intn(40); i++ {
				w := width
				if rng.Intn(10) == 0 {
					w = max(1, gw+rng.Intn(4)) // width drift, never under the key
				}
				values = append(values, row.Encode(nil, randVecRow(rng, w)))
			}
			if err := p.aggGroup(g, values, func(r row.Row) error {
				rowOut = append(rowOut, capturedKV{val: row.Encode(nil, r)})
				return nil
			}); err != nil {
				t.Fatalf("trial %d row agg: %v", trial, err)
			}
			groups = append(groups, values)
		}
		if err := foldSorted(g, size, ascendingGroups(groups), []*vecEmitter{em}); err != nil {
			t.Fatalf("trial %d vec agg: %v", trial, err)
		}
		if err := em.flush(); err != nil {
			t.Fatal(err)
		}
		sameRecords(t, fmt.Sprintf("trial %d agg", trial), rowOut, vecW.kvs)
	}
}

// TestVecAggAllNullColumn pins the null accounting: count, sum, min, max
// and avg all skip null arguments, so over an all-null column count is 0
// and the others are null.
func TestVecAggAllNullColumn(t *testing.T) {
	g := &GroupOp{Kind: "agg", GroupWidth: 1, Aggs: []AggFuncSpec{
		{Func: "count", Col: 1}, {Func: "sum", Col: 1}, {Func: "min", Col: 1}, {Func: "avg", Col: 1},
	}}
	var values [][]byte
	for i := 0; i < 10; i++ {
		values = append(values, row.Encode(nil, row.Row{row.Int(7), row.Null()}))
	}
	em, w := sinkEmitter(DefaultBatchSize)
	if err := foldSorted(g, 4, ascendingGroups([][][]byte{values}), []*vecEmitter{em}); err != nil {
		t.Fatal(err)
	}
	if err := em.flush(); err != nil {
		t.Fatal(err)
	}
	want := row.Row{row.Int(7), row.Int(0), row.Null(), row.Null(), row.Null()}
	sameRecords(t, "all-null column", []capturedKV{{val: row.Encode(nil, want)}}, w.kvs)
}

// groupEmits binds the two emits a group feeds in the reduce-side
// identity tests to an oracle emitter and a batch emitter each, every one
// with its own writer. The first emit filters, so a selection it narrows
// must not reach the second one's rows; the second shuffles by a column.
type groupEmits struct {
	rowEms       []*emitter
	vecEms       []*vecEmitter
	rowWs, vecWs []*captureWriter
}

func newGroupEmits(rng *rand.Rand, width, batchSize int) *groupEmits {
	ge := &groupEmits{}
	for _, spec := range []EmitSpec{
		{Kind: EmitSink, Output: "a", Tag: -1, Pipe: []PipeOp{{Kind: "filter", Filter: randVecExpr(rng, width, 2)}}},
		{Kind: EmitShuffle, Output: "b", Tag: rng.Intn(2), Keys: []*Expr{Col(rng.Intn(width))}, Desc: []bool{rng.Intn(2) == 0}},
	} {
		rowW, vecW := &captureWriter{}, &captureWriter{}
		ge.rowWs, ge.vecWs = append(ge.rowWs, rowW), append(ge.vecWs, vecW)
		ge.rowEms = append(ge.rowEms, &emitter{spec: spec, writer: rowW})
		ge.vecEms = append(ge.vecEms, newVecEmitter(spec, vecW, nil, batchSize))
	}
	return ge
}

// emitRow feeds one oracle row to every oracle emitter.
func (ge *groupEmits) emitRow(r row.Row) error {
	for _, em := range ge.rowEms {
		if err := em.emit(r); err != nil {
			return err
		}
	}
	return nil
}

// check flushes the batch emitters and compares each with its oracle.
func (ge *groupEmits) check(t *testing.T, what string) {
	t.Helper()
	for i, em := range ge.vecEms {
		if err := em.flush(); err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("%s emit %d", what, i)
		if ge.rowEms[i].count != em.count {
			t.Fatalf("%s: oracle emitted %d rows, batch engine %d", what, ge.rowEms[i].count, em.count)
		}
		sameRecords(t, what, ge.rowWs[i].kvs, ge.vecWs[i].kvs)
	}
}

// randJoinGroup builds one join group's tagged values: n[s] rows of side
// s, interleaved in random order (the merged readers do not sort by tag),
// with ragged widths within and across sides when ragged is set.
func randJoinGroup(rng *rand.Rand, widths []int, ragged bool) [][]byte {
	var tags []int
	for s := range widths {
		for i := rng.Intn(7); i > 0; i-- { // 0: an empty side
			tags = append(tags, s)
		}
	}
	rng.Shuffle(len(tags), func(i, j int) { tags[i], tags[j] = tags[j], tags[i] })
	values := make([][]byte, len(tags))
	for i, s := range tags {
		w := widths[s]
		if ragged && rng.Intn(3) == 0 {
			w = 1 + rng.Intn(4)
		}
		values[i] = row.Encode([]byte{byte(s)}, randVecRow(rng, w))
	}
	return values
}

// TestVecJoinIdentityRandom byte-compares the reduce-side join (per-side
// column segments, product written column to column) with the oracle's
// joinGroup feeding row emitters: nulls, kind-mixed columns, NaN, -0.0
// and zero-byte strings; ragged widths within and across sides; empty
// sides; products past the batch size at batch sizes ≤ 8; two bound
// emitters, the first filtering. The joinGroups and emitters are reused
// across every group of a trial, as in a task.
func TestVecJoinIdentityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var join joinGroups
	for trial := 0; trial < 150; trial++ {
		widths := make([]int, 2)
		total := 0
		for s := range widths {
			widths[s] = 1 + rng.Intn(4)
			total += widths[s]
		}
		ragged := rng.Intn(3) == 0
		ge := newGroupEmits(rng, total+2, 1+rng.Intn(8))
		p := &stageProcessor{}
		for grp := 1 + rng.Intn(6); grp > 0; grp-- {
			values := randJoinGroup(rng, widths, ragged)
			if err := p.joinGroup(values, ge.emitRow); err != nil {
				t.Fatalf("trial %d oracle join: %v", trial, err)
			}
			if err := join.run(nil, values, ge.vecEms); err != nil {
				t.Fatalf("trial %d batch join: %v", trial, err)
			}
		}
		ge.check(t, fmt.Sprintf("trial %d", trial))
	}
}

// TestVecJoinGroupErrors: an untagged value, a tag past the last side and
// a truncated row fail the group on both the oracle and the batch join.
func TestVecJoinGroupErrors(t *testing.T) {
	good := row.Encode([]byte{0}, row.Row{row.Int(1), row.String("x")})
	for name, bad := range map[string][]byte{
		"untagged":  {},
		"tag 2":     row.Encode([]byte{2}, row.Row{row.Int(1)}),
		"tag 255":   row.Encode([]byte{255}, row.Row{row.Int(1)}),
		"truncated": good[:len(good)-1],
		"no header": {1},
	} {
		values := [][]byte{good, row.Encode([]byte{1}, row.Row{row.Int(2)}), bad}
		p := &stageProcessor{}
		if err := p.joinGroup(values, func(row.Row) error { return nil }); err == nil {
			t.Errorf("%s: oracle accepted the group", name)
		}
		em, _ := sinkEmitter(DefaultBatchSize)
		var join joinGroups
		if err := join.run(nil, values, []*vecEmitter{em}); err == nil {
			t.Errorf("%s: batch join accepted the group", name)
		}
	}
}

// TestSortedJoinPairsNoNullKey: a sorted join's group whose key holds a
// NULL, in any column, writes no product, though both sides hold rows;
// the same group under a key without one writes the product.
func TestSortedJoinPairsNoNullKey(t *testing.T) {
	values := [][]byte{
		row.Encode([]byte{0}, row.Row{row.Null(), row.String("l")}),
		row.Encode([]byte{1}, row.Row{row.Null(), row.String("r")}),
	}
	var join joinGroups
	for _, key := range []row.Row{{row.Null()}, {row.Int(1), row.Null()}, {row.String("\x00"), row.Null()}, {row.Int(1)}} {
		em, w := sinkEmitter(DefaultBatchSize)
		if err := join.run(row.EncodeKey(nil, key...), values, []*vecEmitter{em}); err != nil {
			t.Fatal(err)
		}
		if err := em.close(); err != nil {
			t.Fatal(err)
		}
		null := slices.ContainsFunc(key, row.Value.IsNull)
		if got := len(w.kvs); null && got != 0 || !null && got != 1 {
			t.Errorf("key %v: %d product rows", key, got)
		}
	}
}

// TestVecSortDistinctIdentityRandom runs sort (with and without a limit)
// and distinct stages through runGroups over random groups and compares
// two bound emitters, the first filtering, with the oracle decoding each
// value into row emitters.
func TestVecSortDistinctIdentityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 100; trial++ {
		g := &GroupOp{Kind: "sort"}
		switch trial % 3 {
		case 1:
			g.Limit = 1 + rng.Intn(30)
		case 2:
			g.Kind = "distinct"
		}
		width := 1 + rng.Intn(4)
		groups := &sliceGroups{}
		for k := rng.Intn(12); k > 0; k-- {
			var vals [][]byte
			for i := 1 + rng.Intn(6); i > 0; i-- {
				w := width
				if rng.Intn(8) == 0 {
					w = 1 + rng.Intn(4)
				}
				vals = append(vals, row.Encode(nil, randVecRow(rng, w)))
			}
			groups.keys = append(groups.keys, []byte{byte(k)})
			groups.vals = append(groups.vals, vals)
		}
		ge := newGroupEmits(rng, width+1, 1+rng.Intn(8))
		emitted := 0
	oracle:
		for _, vals := range groups.vals {
			if g.Kind == "distinct" {
				vals = vals[:1]
			}
			for _, v := range vals {
				if g.Limit > 0 && emitted >= g.Limit {
					break oracle
				}
				r, err := row.Decode(v)
				if err != nil {
					t.Fatal(err)
				}
				if err := ge.emitRow(r); err != nil {
					t.Fatal(err)
				}
				emitted++
			}
		}

		p := &stageProcessor{spec: &StageSpec{Group: g}}
		if err := p.runGroups([]runtime.GroupedKVReader{groups}, nil, ge.vecEms); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ge.check(t, fmt.Sprintf("trial %d %s", trial, g.Kind))
	}
}

type discardWriter struct{}

func (discardWriter) Write(key, value []byte) error { return nil }

// TestJoinGroupAllocsBounded holds the reduce-side join to a constant
// number of allocations per group once its segments and the emitter's
// batch are warm, whatever the row width or fan-out. (The row path it
// replaced allocated at least two per output row and one per decoded
// row: 13 per 1 × 4 group.)
func TestJoinGroupAllocsBounded(t *testing.T) {
	for _, shape := range []struct{ width, fanOut int }{{10, 4}, {20, 4}, {10, 16}} {
		rng := rand.New(rand.NewSource(23))
		mkRow := func(key int64) row.Row {
			r := row.Row{row.Int(key)}
			for len(r) < shape.width {
				switch len(r) % 3 {
				case 0:
					r = append(r, row.Int(rng.Int63n(1000)))
				case 1:
					r = append(r, row.Float(rng.Float64()))
				default:
					r = append(r, row.String(fmt.Sprintf("Customer#%06d", rng.Intn(1e6))))
				}
			}
			return r
		}
		groups := make([][][]byte, 64)
		for k := range groups {
			groups[k] = append(groups[k], row.Encode([]byte{0}, mkRow(int64(k))))
			for i := 0; i < shape.fanOut; i++ {
				groups[k] = append(groups[k], row.Encode([]byte{1}, mkRow(int64(k))))
			}
		}
		spec := EmitSpec{Kind: EmitShuffle, Output: "o", Tag: -1, Keys: []*Expr{Col(0)}}
		ems := []*vecEmitter{newVecEmitter(spec, discardWriter{}, nil, DefaultBatchSize)}
		var join joinGroups
		run := func() {
			for _, values := range groups {
				if err := join.run(nil, values, ems); err != nil {
					t.Fatal(err)
				}
			}
		}
		run() // warm the segments and the emitter's batch
		perGroup := testing.AllocsPerRun(20, run) / float64(len(groups))
		t.Logf("%d-column rows, 1 × %d: %.3f allocations per group", shape.width, shape.fanOut, perGroup)
		if perGroup > 0.5 {
			t.Errorf("%d-column rows, 1 × %d groups: %.2f allocations per group, want ≤ 0.5",
				shape.width, shape.fanOut, perGroup)
		}
	}
}

// TestVectorizedEndToEndByteIdentity runs one DAG — broadcast join,
// filter, arithmetic projection, aggregation, ordered store — and compares
// the stored part files with a recorded digest and the stored rows with
// the oracle's plan evaluated row at a time under the math/big aggregate
// reference. The digest is the row engine's for this plan at the last
// commit that had one, re-recorded once when min and max began to break
// row.Compare ties by row.CompareTotal (the min here reads a kind-mixed
// column). Auto-parallelism is off so the part-file layout does not
// follow timing.
func TestVectorizedEndToEndByteIdentity(t *testing.T) {
	h := newHarness(t)
	defer h.close()
	rng := rand.New(rand.NewSource(3))
	var facts []row.Row
	for i := 0; i < 400; i++ {
		facts = append(facts, row.Row{
			row.Int(int64(rng.Intn(20))),
			randVecValue(rng),
			row.Float(float64(rng.Intn(100)) / 4),
		})
	}
	var dims []row.Row
	for i := 0; i < 20; i++ {
		dims = append(dims, row.Row{row.Int(int64(i)), row.String(fmt.Sprintf("d%02d", i))})
	}
	fact := h.table("fact_vec", row.NewSchema("k:int", "x", "v:float"), 3, facts)
	dim := h.table("dim_vec", row.NewSchema("k:int", "name"), 1, dims)

	filter := Or(Cmp(">", Col(2), LitFloat(5)), Not(Col(1)))
	project := []*Expr{Col(4), Arith("*", Col(2), LitFloat(2)), Col(1)}
	aggs := []AggDef{
		{Func: "count", Name: "n"},
		{Func: "sum", Arg: Col(1), Name: "s"},
		{Func: "min", Arg: Col(2), Name: "lo"},
	}
	mkPlan := func(out string) []*Node {
		s := Scan(fact)
		f := FilterNode(s, filter)
		d := Scan(dim)
		j := JoinNode(f, d, []*Expr{Col(0)}, []*Expr{Col(0)}, true) // broadcast
		p := ProjectNode(j, project,
			[]string{"name", "v2", "x"}, []row.Kind{row.KindString, row.KindFloat, row.KindString})
		a := AggNode(p, []*Expr{Col(0)}, []string{"name"}, aggs)
		srt := SortNode(a, []*Expr{Col(0)}, []bool{false}, 0)
		return []*Node{StoreNode(srt, out)}
	}

	const golden = "5cba127d516c2099d0c672221e6a12e5ccb662251e4025aaff6577bdd5ae7834"
	sess := am.NewSession(h.plat, am.Config{Name: "e2e", DisableAutoParallelism: true})
	defer sess.Close()
	if _, err := RunTez(sess, Config{}, "e2e", mkPlan("/out/e2e")); err != nil {
		t.Fatal(err)
	}
	if got := testutil.PartsDigest(t, h.plat.FS, "/out/e2e"); got != golden {
		t.Fatalf("stored bytes differ from the row engine's: digest %s, want %s", got, golden)
	}
	var ref refGroups
	for _, fr := range facts {
		if !Truthy(filter.Eval(fr)) {
			continue
		}
		for _, dr := range dims {
			if bytes.Equal(row.EncodeKey(nil, fr[0]), row.EncodeKey(nil, dr[0])) {
				p := EvalAll(project, append(append(row.Row{}, fr...), dr...))
				ref.add(p[:1], p, aggs)
			}
		}
	}
	want := ref.rows(aggs)
	slices.SortFunc(want, func(a, b row.Row) int { return row.Compare(a[0], b[0]) })
	got := h.stored("/out/e2e")
	if len(got) != len(want) {
		t.Fatalf("%d rows stored, reference %d", len(got), len(want))
	}
	for i := range want {
		if g, w := row.Encode(nil, got[i]), row.Encode(nil, want[i]); !bytes.Equal(g, w) {
			t.Fatalf("row %d: %v, reference %v", i, got[i], want[i])
		}
	}
}

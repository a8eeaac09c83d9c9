package relop

import (
	"bytes"
	"fmt"
	"slices"

	"tez/internal/col"
	"tez/internal/event"
	"tez/internal/plugin"
	"tez/internal/row"
	"tez/internal/runtime"
)

// vecEmitter is one EmitSpec bound to its writer, run batch-at-a-time:
// input rows accumulate into a columnar batch (parsed straight from their
// wire encoding, no row.Row boxing), the pipeline applies whole-batch
// kernels (filters narrow the selection vector, projects swap in computed
// vectors, hash joins fan out into bounded output batches), and the
// terminal re-encodes live rows in the row wire format. The downstream
// writers copy what they are handed (sort arenas, unordered buffers,
// record files), so the scratch buffers are reused across rows.
type vecEmitter struct {
	spec   EmitSpec
	writer runtime.KVWriter
	tables map[string]map[string][]row.Row
	size   int
	batch  *col.Batch
	// joins holds the reusable scratch of a hashjoin at each Pipe
	// position: a nested join runs while the outer join's probe loop is
	// still live, so positions must not share.
	joins    []joinScratch
	keyVecs  []col.Vector
	keyBuf   []byte
	valBuf   []byte
	frameBuf []byte
	// deferred collects key values for initializer/vm emits, sent once at
	// stage end.
	deferred []row.Value
	// top keeps a limited shuffle emit's records until close.
	top *topK
	// parts is the writer of a hash edge: a shuffle emit bound to it
	// writes frames, each keyed by frameKey (the join side's tag) and
	// holding the rows of partRows[p].
	parts    partitionWriter
	frameKey []byte
	partRows [][]int32
	// partial pre-aggregates a shuffle emit with Aggs (partial.go).
	partial *hashFold
	count   int64
}

// partitionWriter writes to a hash-partitioned edge
// (library.PartitionedWriter): the emitter partitions its rows by key
// itself and writes each partition's share of a batch as one frame.
type partitionWriter interface {
	Partition(key []byte) int
	WritePartition(p int, key, value []byte) error
}

type joinScratch struct {
	out  *col.Batch
	keys []col.Vector
}

func newVecEmitter(spec EmitSpec, w runtime.KVWriter, tables map[string]map[string][]row.Row, size int) *vecEmitter {
	ve := &vecEmitter{spec: spec, writer: w, tables: tables, size: size,
		batch: col.NewBatch(), joins: make([]joinScratch, len(spec.Pipe))}
	if spec.Kind == EmitShuffle && spec.Limit > 0 {
		ve.top = &topK{k: spec.Limit}
	}
	if pw, ok := w.(partitionWriter); ok && spec.Kind == EmitShuffle {
		ve.parts = pw
		if spec.Tag >= 0 {
			ve.frameKey = []byte{byte(spec.Tag)}
		}
	}
	return ve
}

// add appends one encoded input row, flushing on batch-full or on a row
// width change (widths are stable in practice; a change just costs an
// early flush, never a wrong result).
func (ve *vecEmitter) add(encoded []byte) error {
	ok, err := ve.batch.AppendEncoded(encoded)
	if err != nil {
		return err
	}
	if !ok {
		if err := ve.flush(); err != nil {
			return err
		}
		if ok, err = ve.batch.AppendEncoded(encoded); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("relop: batch rejected row after reset")
		}
	}
	if ve.batch.Len() >= ve.size {
		return ve.flush()
	}
	return nil
}

// addStripe runs one table stripe through the pipeline as one batch: its
// columns cols (nil: all) are decoded into the emitter's batch, which a
// table input's emitter holds no other rows in, and the rest read null.
func (ve *vecEmitter) addStripe(stripe []byte, cols []int) error {
	if err := col.DecodeBatchInto(ve.batch, stripe, cols); err != nil {
		return err
	}
	return ve.flush()
}

// beginRow readies the input batch for one width-w row that the caller
// appends column by column (join products, aggregate results), flushing
// first on a width change as add does. endRow commits it.
func (ve *vecEmitter) beginRow(w int) (*col.Batch, error) {
	if ve.batch.Len() > 0 && ve.batch.Width() != w {
		if err := ve.flush(); err != nil {
			return nil, err
		}
	}
	ve.batch.EnsureWidth(w)
	return ve.batch, nil
}

// endRow commits the row beginRow opened, flushing on batch-full.
func (ve *vecEmitter) endRow() error {
	ve.batch.SetRowCount(ve.batch.Len() + 1)
	if ve.batch.Len() >= ve.size {
		return ve.flush()
	}
	return nil
}

// flush runs the buffered input rows through the pipeline.
func (ve *vecEmitter) flush() error {
	if ve.batch.Len() == 0 {
		return nil
	}
	err := ve.run(ve.batch, 0)
	ve.batch.Reset()
	return err
}

// close flushes the buffered rows, writes the partial states a
// pre-aggregating emit holds, and writes the records a limited shuffle
// emit kept, in (key, value) order.
func (ve *vecEmitter) close() error {
	if err := ve.flush(); err != nil {
		return err
	}
	if err := ve.closePartial(); err != nil || ve.top == nil {
		return err
	}
	for _, r := range ve.top.sorted() {
		ve.count++
		if err := ve.writer.Write(r.key, r.val); err != nil {
			return err
		}
	}
	return nil
}

// run applies ops[from:] to b and hands what survives to the terminal. A
// hash join feeds the ops after it itself, one bounded output batch at a
// time.
func (ve *vecEmitter) run(b *col.Batch, from int) error {
	ops := ve.spec.Pipe
	for i := from; i < len(ops); i++ {
		op := &ops[i]
		switch op.Kind {
		case "filter":
			pred := evalVec(op.Filter, b)
			b.Filter(&pred)
			if b.Live() == 0 {
				return nil
			}
		case "project":
			vecs := make([]col.Vector, len(op.Project))
			for j, e := range op.Project {
				vecs[j] = evalVec(e, b)
			}
			b = col.FromVectors(b.Len(), b.Sel(), vecs)
		case "hashjoin":
			return ve.hashJoin(i, op, b)
		default:
			return fmt.Errorf("relop: unknown pipe op %q", op.Kind)
		}
	}
	return ve.terminal(b)
}

// evalKeys evaluates key expressions over b into dst.
func evalKeys(dst []col.Vector, exprs []*Expr, b *col.Batch) []col.Vector {
	for _, kx := range exprs {
		dst = append(dst, evalVec(kx, b))
	}
	return dst
}

// appendKey appends the orderable key of physical row i: one
// row.EncodeKey segment per key vector, a descending one flipped in place.
func appendKey(dst []byte, keys []col.Vector, i int, desc []bool) []byte {
	for j := range keys {
		start := len(dst)
		dst = col.AppendKeyEncoded(dst, &keys[j], i)
		if j < len(desc) && desc[j] {
			row.FlipKey(dst[start:])
		}
	}
	return dst
}

// hashJoin probes the build table per live row and appends probe ++ build
// to the op's output batch, which goes through ops[opIdx+1:] whenever it
// reaches the batch size — a fan-out join never materializes more than
// that — and whenever a build row changes the output width (the rule
// Batch.AppendEncoded applies to ragged input). Write order is the probe
// order times the table's match order either way.
func (ve *vecEmitter) hashJoin(opIdx int, op *PipeOp, b *col.Batch) error {
	table := ve.tables[op.HJ.Input]
	if table == nil {
		return fmt.Errorf("relop: hash join against unknown build input %q", op.HJ.Input)
	}
	js := &ve.joins[opIdx]
	if js.out == nil {
		js.out = col.NewBatch()
	}
	out := js.out
	rows, width := 0, -1 // pending output rows and their shape (-1: none yet)
	flush := func() error {
		if rows == 0 {
			return nil
		}
		out.SetRowCount(rows)
		err := ve.run(out, opIdx+1)
		out.Reset()
		rows, width = 0, -1
		return err
	}

	pw := b.Width()
	js.keys = evalKeys(js.keys[:0], op.HJ.ProbeKeys, b)
	for k := 0; k < b.Live(); k++ {
		i := b.RowAt(k)
		// The key scratch is consumed by the map lookup before a nested
		// join or the terminal can overwrite it.
		ve.keyBuf = appendKey(ve.keyBuf[:0], js.keys, i, nil)
		for _, build := range table[string(ve.keyBuf)] {
			if w := pw + len(build); w != width {
				if err := flush(); err != nil {
					return err
				}
				out.EnsureWidth(w)
				width = w
			}
			for c := 0; c < pw; c++ {
				out.Col(c).AppendFrom(b.Col(c), i)
			}
			for c, val := range build {
				out.Col(pw + c).AppendValue(val)
			}
			if rows++; rows >= ve.size {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	return flush()
}

func (ve *vecEmitter) terminal(b *col.Batch) error {
	if ve.spec.SampleRate > 0 {
		keep := col.NewBool(b.Len())
		for k := 0; k < b.Live(); k++ {
			i := b.RowAt(k)
			ve.valBuf = col.AppendRowEncoded(ve.valBuf[:0], b, i)
			if sampled(ve.valBuf, ve.spec.SampleRate) {
				keep.SetTrue(i)
			}
		}
		b.Filter(&keep)
		if b.Live() == 0 {
			return nil
		}
	}
	switch ve.spec.Kind {
	case EmitShuffle:
		if len(ve.spec.Aggs) > 0 {
			return ve.preAggregate(b)
		}
		return ve.shuffle(b)
	case EmitBroadcast:
		ve.frameBuf = col.EncodeBatch(ve.frameBuf[:0], b)
		ve.count += int64(b.Live())
		return ve.writer.Write(nil, ve.frameBuf)
	case EmitSink:
		for k := 0; k < b.Live(); k++ {
			ve.valBuf = col.AppendRowEncoded(ve.valBuf[:0], b, b.RowAt(k))
			ve.count++
			if err := ve.writer.Write(nil, ve.valBuf); err != nil {
				return err
			}
		}
		return nil
	case EmitInitializer, EmitVM:
		vals := evalVec(ve.spec.Keys[0], b)
		for k := 0; k < b.Live(); k++ {
			ve.deferred = append(ve.deferred, vals.Value(b.RowAt(k)))
			ve.count++
		}
		return nil
	}
	return fmt.Errorf("relop: unknown emit kind %q", ve.spec.Kind)
}

// shuffle writes b's live rows to a shuffle emit's writer: as frames on a
// hash edge, else one (key, row) record each, or offered to the top k.
func (ve *vecEmitter) shuffle(b *col.Batch) error {
	ve.keyVecs = evalKeys(ve.keyVecs[:0], ve.spec.Keys, b)
	if ve.parts != nil {
		return ve.writeFrames(b)
	}
	for k := 0; k < b.Live(); k++ {
		i := b.RowAt(k)
		ve.keyBuf = appendKey(ve.keyBuf[:0], ve.keyVecs, i, ve.spec.Desc)
		val := ve.valBuf[:0]
		if ve.spec.Tag >= 0 {
			val = append(val, byte(ve.spec.Tag))
		}
		val = col.AppendRowEncoded(val, b, i)
		ve.valBuf = val
		if ve.top != nil {
			ve.top.offer(ve.keyBuf, val)
			continue
		}
		ve.count++
		if err := ve.writer.Write(ve.keyBuf, val); err != nil {
			return err
		}
	}
	return nil
}

// writeFrames partitions b's live rows by their shuffle key, as the
// ordered edge would, and writes each partition's rows as one
// col.EncodeBatch frame. ROWS_EMITTED counts the rows.
func (ve *vecEmitter) writeFrames(b *col.Batch) error {
	for p := range ve.partRows {
		ve.partRows[p] = ve.partRows[p][:0]
	}
	for k := 0; k < b.Live(); k++ {
		i := b.RowAt(k)
		ve.keyBuf = appendKey(ve.keyBuf[:0], ve.keyVecs, i, ve.spec.Desc)
		p := ve.parts.Partition(ve.keyBuf)
		if p < 0 {
			return fmt.Errorf("relop: row partitioned to %d", p)
		}
		for p >= len(ve.partRows) {
			ve.partRows = append(ve.partRows, nil)
		}
		ve.partRows[p] = append(ve.partRows[p], int32(i))
	}
	for p, rows := range ve.partRows {
		if len(rows) == 0 {
			continue
		}
		ve.frameBuf = col.EncodeRows(ve.frameBuf[:0], b, rows)
		ve.count += int64(len(rows))
		if err := ve.parts.WritePartition(p, ve.frameKey, ve.frameBuf); err != nil {
			return err
		}
	}
	return nil
}

// sendDeferred sends the control events of initializer/vm emits (§3.3:
// opaque payloads routed by the framework).
func (ve *vecEmitter) sendDeferred(ctx *runtime.Context) {
	switch ve.spec.Kind {
	case EmitInitializer:
		ctx.Emit(event.InputInitializerEvent{
			TargetVertex:     ve.spec.Output,
			TargetDataSource: ve.spec.TargetSource,
			SrcVertex:        ctx.Meta.Vertex,
			SrcTask:          ctx.Meta.Task,
			Payload:          plugin.MustEncode(PruneValues{Values: ve.deferred}),
		})
	case EmitVM:
		ctx.Emit(event.VertexManagerEvent{
			TargetVertex: ve.spec.Output,
			SrcVertex:    ctx.Meta.Vertex,
			SrcTask:      ctx.Meta.Task,
			Payload:      plugin.MustEncode(PruneValues{Values: ve.deferred}),
		})
	}
}

// topK keeps the k smallest (key, value) records offered to it. Records
// are buffered up to 2k, then sorted and cut back to k; once a cut has
// happened, a record not below the k-th kept one is dropped on arrival.
// Cut records' buffers are reused, so a warm topK does not allocate.
type topK struct {
	k    int
	recs []kvRecord // recs[:n] are live
	n    int
	full bool // recs[k-1] is the k-th smallest record so far
}

type kvRecord struct{ key, val []byte }

func compareRecords(a, b kvRecord) int {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c
	}
	return bytes.Compare(a.val, b.val)
}

// offer copies the record in if it may be among the k smallest.
func (t *topK) offer(key, val []byte) {
	if t.full && compareRecords(kvRecord{key, val}, t.recs[t.k-1]) >= 0 {
		return
	}
	if t.n == len(t.recs) {
		t.recs = append(t.recs, kvRecord{})
	}
	r := &t.recs[t.n]
	r.key, r.val = append(r.key[:0], key...), append(r.val[:0], val...)
	if t.n++; t.n == 2*t.k {
		t.cut()
	}
}

// cut sorts the live records and keeps the k smallest.
func (t *topK) cut() {
	slices.SortFunc(t.recs[:t.n], compareRecords)
	if t.n >= t.k {
		t.n, t.full = t.k, true
	}
}

// sorted returns the kept records in ascending order.
func (t *topK) sorted() []kvRecord {
	t.cut()
	return t.recs[:t.n]
}

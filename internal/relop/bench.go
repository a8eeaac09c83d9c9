package relop

import (
	"fmt"

	"tez/internal/col"
	"tez/internal/row"
	"tez/internal/runtime"
)

// This file exports the two kernel entry points the repository's
// benchmark (benchmark/probes.go, the relop.*_ns_per_row metrics) times,
// so it drives exactly the data plane a task attempt runs — same emitter,
// same kernels — without standing up a cluster.

// RunEmitBench streams pre-encoded rows through one emit pipeline in
// batches of batchSize (> 0) and returns the number of rows emitted.
// tables holds each build input's rows by encoded key. They are first
// converted into join tables, a key's rows in order: a conversion that
// exists only for benchmark/probes.go, until it builds join tables itself
// (ROADMAP item 10(d)). widths is ignored: the hash join reads each build
// row's width itself.
func RunEmitBench(spec EmitSpec, tables map[string]map[string][]row.Row, widths map[string]int,
	encoded [][]byte, batchSize int, w runtime.KVWriter) (int64, error) {

	if batchSize <= 0 {
		return 0, fmt.Errorf("relop: batch size %d, want > 0", batchSize)
	}
	if err := validateEmit(&spec); err != nil {
		return 0, err
	}
	joins := map[string]*joinTable{}
	for name, byKey := range tables {
		t := newJoinTable()
		t.batches = []*col.Batch{col.NewBatch()}
		for key, rows := range byKey {
			id := t.keys.add([]byte(key))
			for _, r := range rows {
				if !t.batches[len(t.batches)-1].AppendRow(r) { // a new width
					t.batches = append(t.batches, col.NewBatch())
					t.batches[len(t.batches)-1].AppendRow(r)
				}
				b := len(t.batches) - 1
				t.rows = append(t.rows, buildRow{int32(b), int32(t.batches[b].Len() - 1), id})
			}
		}
		t.link()
		joins[name] = t
	}
	ve := newVecEmitter(spec, w, joins, batchSize)
	for _, e := range encoded {
		if err := ve.add(e); err != nil {
			return 0, err
		}
	}
	if err := ve.flush(); err != nil {
		return 0, err
	}
	return ve.count, nil
}

// RunAggBench folds one group's encoded values through the aggregate fold
// an agg stage runs (hashFold), in batches of batchSize (> 0), and hands
// emit the group's output row (none when there are no values).
func RunAggBench(g *GroupOp, values [][]byte, batchSize int, emit func(row.Row) error) error {
	if batchSize <= 0 {
		return fmt.Errorf("relop: batch size %d, want > 0", batchSize)
	}
	ems := []*vecEmitter{newVecEmitter(EmitSpec{Kind: EmitSink, Tag: -1}, decodingWriter(emit), nil, batchSize)}
	f, err := getHashFold(g, batchSize)
	if err != nil {
		return err
	}
	defer hashFolds.Put(f)
	if err := f.addGroup(ems, nil, values); err != nil {
		return err
	}
	if err := f.emit(ems); err != nil {
		return err
	}
	return ems[0].flush()
}

// decodingWriter hands each written value to a callback as a row.
type decodingWriter func(row.Row) error

func (w decodingWriter) Write(_, value []byte) error {
	r, err := row.Decode(value)
	if err != nil {
		return err
	}
	return w(r)
}

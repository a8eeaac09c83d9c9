package relop

import (
	"fmt"

	"tez/internal/row"
	"tez/internal/runtime"
)

// This file exports the two kernel entry points the repository's
// benchmark (benchmark/probes.go, the relop.*_ns_per_row metrics) times,
// so it drives exactly the data plane a task attempt runs — same emitter,
// same kernels — without standing up a cluster.

// RunEmitBench streams pre-encoded rows through one emit pipeline in
// batches of batchSize (> 0) and returns the number of rows emitted.
// widths is ignored: the hash join reads each build row's width itself.
func RunEmitBench(spec EmitSpec, tables map[string]map[string][]row.Row, widths map[string]int,
	encoded [][]byte, batchSize int, w runtime.KVWriter) (int64, error) {

	if batchSize <= 0 {
		return 0, fmt.Errorf("relop: batch size %d, want > 0", batchSize)
	}
	if err := validateEmit(&spec); err != nil {
		return 0, err
	}
	ve := newVecEmitter(spec, w, tables, batchSize)
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

// RunAggBench folds one group's encoded values through the grouped
// aggregate an agg stage runs, in batches of batchSize (> 0), and hands
// emit the group's output row (none when there are no values).
func RunAggBench(g *GroupOp, values [][]byte, batchSize int, emit func(row.Row) error) error {
	if batchSize <= 0 {
		return fmt.Errorf("relop: batch size %d, want > 0", batchSize)
	}
	ve := newVecEmitter(EmitSpec{Kind: EmitSink, Tag: -1}, decodingWriter(emit), nil, batchSize)
	f := newGroupFold(g, batchSize, []*vecEmitter{ve})
	if err := f.addGroup(values); err != nil {
		return err
	}
	if err := f.close(); err != nil {
		return err
	}
	return ve.flush()
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

package relop

import "tez/internal/col"

// Partial aggregation at the producers (DESIGN §13, "Aggregate before the
// shuffle"). A shuffle emit into an agg stage whose states merge
// (EmitSpec.Aggs) folds its rows into a hashFold of partial states, keyed
// by the shuffle key, and writes one row [group..., state...] per group:
// when the table reaches partialGroupCap groups, and at task end. The
// rows go to the emit's writer as any shuffle emit's do, so the ordered
// edge of the MR chain and the hash edge both carry them.

// partialGroupCap is the most groups a producer's table, or the fold of
// a grouped input (hashFold.open), holds before it writes them out. A
// variable only so tests can force early writes.
var partialGroupCap = 1 << 12

// partialFold returns the emit's table of partial states, taken from the
// pool on first use.
func (ve *vecEmitter) partialFold() (*hashFold, error) {
	if ve.partial == nil {
		f, err := getHashFold(&GroupOp{Kind: "agg", GroupWidth: len(ve.spec.Keys), Aggs: ve.spec.Aggs}, ve.size)
		if err != nil {
			return nil, err
		}
		ve.partial = f
	}
	return ve.partial, nil
}

// preAggregate folds b's live rows into the emit's partial states.
func (ve *vecEmitter) preAggregate(b *col.Batch) error {
	f, err := ve.partialFold()
	if err != nil {
		return err
	}
	f.keyVecs = evalKeys(f.keyVecs[:0], ve.spec.Keys, b)
	for k := 0; k < b.Live(); {
		if len(f.first) >= partialGroupCap {
			if err := ve.writePartials(); err != nil {
				return err
			}
		}
		ids := f.groupLive(b, k, true, partialGroupCap)
		if err := f.foldLive(b, k, ids); err != nil {
			return err
		}
		k += len(ids)
	}
	return nil
}

// foldLive folds b's live rows from the from-th on, of groups ids, into
// the table: gathered group by group into one dense batch, so that each
// group's rows fold as one run.
func (f *hashFold) foldLive(b *col.Batch, from int, ids []int32) error {
	for len(f.slots) < len(f.first) {
		f.slots = append(f.slots, 0)
	}
	f.seen = f.seen[:0]
	for _, id := range ids {
		if f.slots[id] == 0 {
			f.seen = append(f.seen, id)
		}
		f.slots[id]++
	}
	f.sorted = f.sorted[:0]
	next := int32(0)
	for _, id := range f.seen {
		n := f.slots[id]
		for range n {
			f.sorted = append(f.sorted, id)
		}
		f.slots[id], next = next, next+n
	}
	f.perm = append(f.perm[:0], f.sorted...)
	for j, id := range ids {
		f.perm[f.slots[id]] = int32(b.RowAt(from + j))
		f.slots[id]++
	}
	for _, id := range f.seen {
		f.slots[id] = 0
	}
	f.b.Gather(b, f.perm)
	return f.fold(f.b, f.sorted)
}

// writePartials writes one partial row per group of the table and
// empties it.
func (ve *vecEmitter) writePartials() error {
	f := ve.partial
	gw, na := f.g.GroupWidth, len(f.g.Aggs)
	for id, r := range f.first {
		out := f.out
		out.EnsureWidth(gw + na)
		for c := 0; c < gw; c++ {
			out.Col(c).AppendFrom(f.vals.Col(c), int(r))
		}
		for i := range na {
			f.state = f.states[id*na+i].appendPartial(f.state[:0], f.needs[i])
			out.Col(gw + i).AppendBytes(f.state)
		}
		out.SetRowCount(out.Len() + 1)
		if out.Len() >= ve.size {
			if err := ve.writeOut(); err != nil {
				return err
			}
		}
	}
	f.reset()
	return ve.writeOut()
}

// writeOut shuffles the partial rows waiting.
func (ve *vecEmitter) writeOut() error {
	out := ve.partial.out
	if out.Len() == 0 {
		return nil
	}
	err := ve.shuffle(out)
	out.Reset()
	return err
}

// closePartial writes what the table holds and returns it to the pool. A
// group-less emit writes its one group even when no row reached it: the
// fresh states merge as nothing does, so a global aggregate over no rows
// still finds its group at the consumer and writes count 0 and nulls.
func (ve *vecEmitter) closePartial() error {
	if len(ve.spec.Aggs) == 0 || ve.partial == nil && len(ve.spec.Keys) > 0 {
		return nil
	}
	f, err := ve.partialFold()
	if err != nil {
		return err
	}
	if len(ve.spec.Keys) == 0 {
		f.group(nil)
	}
	err = ve.writePartials()
	hashFolds.Put(f)
	ve.partial = nil
	return err
}

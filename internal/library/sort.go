package library

// mergeReader k-way merges sorted runs (each an encoded buffer) into a
// single stream ordered by (key, value). It implements runtime.KVReader
// and is the shuffle's one merge: the reduce side's merge of every run of
// every producer, under the grouped reader.
//
// It is a binary min-heap of small entries, one per unexhausted run, each
// carrying its run's current key prefix so that most comparisons are one
// integer compare and never touch the run. Sorted runs of a shuffle are
// full of stretches where one run wins again and again (every duplicate
// of a key, every key the other runs lack), so the root's smaller child —
// the runner-up — is remembered across records: as long as the winner's
// next record is not above it the heap is left alone, at one comparison
// per record.
type mergeReader struct {
	cur      []mergeCursor
	heap     []mergeEntry
	runnerUp int // heap index of the root's smaller child; 0 when it has none
	key, val []byte
	err      error
}

// mergeCursor is the read position in one run.
type mergeCursor struct {
	run      []byte
	end      int // offset just past the current record
	key, val []byte
}

// mergeEntry is a heap slot: a cursor and the keyPrefix of its current key.
type mergeEntry struct {
	prefix uint64
	cur    int32
}

// advance decodes the record after the current one. It reports false at
// the end of the run and on a corrupt record, which also returns an error.
func (c *mergeCursor) advance() (ok bool, err error) {
	k, v, n, err := DecodeRecord(c.run[c.end:])
	if err != nil || n == 0 {
		return false, err
	}
	c.key, c.val, c.end = k, v, c.end+n
	return true, nil
}

// newMergeReader primes a cursor per non-empty run.
func newMergeReader(runs [][]byte) *mergeReader {
	m := &mergeReader{
		cur:  make([]mergeCursor, 0, len(runs)),
		heap: make([]mergeEntry, 0, len(runs)),
	}
	for _, run := range runs {
		c := mergeCursor{run: run}
		ok, err := c.advance()
		if err != nil {
			m.err = err
		}
		if ok {
			m.heap = append(m.heap, mergeEntry{prefix: keyPrefix(c.key), cur: int32(len(m.cur))})
			m.cur = append(m.cur, c)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	m.findRunnerUp()
	return m
}

// less reports whether a's current record sorts strictly before b's.
func (m *mergeReader) less(a, b mergeEntry) bool {
	if a.prefix != b.prefix {
		return a.prefix < b.prefix
	}
	ca, cb := &m.cur[a.cur], &m.cur[b.cur]
	return compareSamePrefix(ca.key, ca.val, cb.key, cb.val) < 0
}

// siftDown restores the heap below slot i.
func (m *mergeReader) siftDown(i int) {
	h := m.heap
	e := h[i]
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if child+1 < len(h) && m.less(h[child+1], h[child]) {
			child++
		}
		if !m.less(h[child], e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}

func (m *mergeReader) findRunnerUp() {
	switch h := m.heap; {
	case len(h) < 2:
		m.runnerUp = 0
	case len(h) > 2 && m.less(h[2], h[1]):
		m.runnerUp = 2
	default:
		m.runnerUp = 1
	}
}

// step moves the winning cursor past its current record and reports
// whether the same run wins again. It must not be called on an empty heap.
func (m *mergeReader) step() (stays bool) {
	c := &m.cur[m.heap[0].cur]
	ok, err := c.advance()
	if !ok {
		if err != nil {
			m.err = err
		}
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
		if last > 1 {
			m.siftDown(0)
		}
		m.findRunnerUp()
		return false
	}
	m.heap[0].prefix = keyPrefix(c.key)
	if m.runnerUp == 0 || !m.less(m.heap[m.runnerUp], m.heap[0]) {
		return true
	}
	m.siftDown(0)
	m.findRunnerUp()
	return false
}

// Next pops the globally smallest pair.
func (m *mergeReader) Next() bool {
	if m.err != nil || len(m.heap) == 0 {
		return false
	}
	c := &m.cur[m.heap[0].cur]
	m.key, m.val = c.key, c.val
	m.step()
	return m.err == nil
}

func (m *mergeReader) Key() []byte   { return m.key }
func (m *mergeReader) Value() []byte { return m.val }
func (m *mergeReader) Err() error    { return m.err }

// groupedReader groups a key-ordered KV stream into (key, values) — the
// reduce-side view. It implements runtime.GroupedKVReader.
//
// It is zero-copy: values are slices into the fetched run buffers (alive
// for the whole task), the key lives in one buffer reused across groups,
// and the values container is truncated and refilled rather than
// reallocated — amortised, a group costs no allocations at all. The
// contract is that Key and Values are valid only until the next call to
// Next; consumers that need the bytes longer must copy them.
type groupedReader struct {
	src     *mergeReader
	key     []byte   // reused across groups
	values  [][]byte // reused container; elements point into run buffers
	pending bool     // src is positioned at the first pair of the next group
	err     error
}

func newGroupedReader(src *mergeReader) *groupedReader {
	g := &groupedReader{src: src}
	g.pending = src.Next()
	return g
}

// Next collects the next key group.
func (g *groupedReader) Next() bool {
	if g.err != nil {
		return false
	}
	if !g.pending {
		g.err = g.src.Err()
		return false
	}
	g.key = append(g.key[:0], g.src.Key()...)
	g.values = append(g.values[:0], g.src.Value())
	for {
		if !g.src.Next() {
			g.pending = false
			g.err = g.src.Err()
			return true
		}
		if string(g.src.Key()) != string(g.key) {
			g.pending = true
			return true
		}
		g.values = append(g.values, g.src.Value())
	}
}

func (g *groupedReader) Key() []byte      { return g.key }
func (g *groupedReader) Values() [][]byte { return g.values }
func (g *groupedReader) Err() error       { return g.err }

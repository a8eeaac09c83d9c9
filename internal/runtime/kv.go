package runtime

// The key-value data-plane contracts shared by the built-in inputs and
// outputs (§4.1: "Tez inputs and outputs are based on the key-value data
// format ... and can be extended to other data formats"). These are
// conventions between compatible IO pairs and processors; the framework
// itself never touches them.

// KVWriter accepts key-value pairs.
type KVWriter interface {
	Write(key, value []byte) error
}

// KVReader iterates key-value pairs.
type KVReader interface {
	// Next advances to the next pair, reporting false at the end.
	Next() bool
	// Key and Value are read-only: a DFS source's pairs are views of the
	// file's blocks (dfs.ReadAt), so a caller that must change the bytes
	// copies them first.
	Key() []byte
	Value() []byte
	// Err returns the first error encountered while reading.
	Err() error
}

// GroupedKVReader iterates keys with all their values grouped — the
// reduce-side contract of the ordered, partitioned shuffle.
type GroupedKVReader interface {
	Next() bool
	Key() []byte
	Values() [][]byte
	Err() error
}

// SliceKVReader adapts in-memory pairs to KVReader (testing and small
// inputs).
type SliceKVReader struct {
	Keys   [][]byte
	Values [][]byte
	pos    int
}

// Next advances.
func (r *SliceKVReader) Next() bool {
	if r.pos >= len(r.Keys) {
		return false
	}
	r.pos++
	return true
}

// Key returns the current key.
func (r *SliceKVReader) Key() []byte { return r.Keys[r.pos-1] }

// Value returns the current value.
func (r *SliceKVReader) Value() []byte { return r.Values[r.pos-1] }

// Err always returns nil.
func (r *SliceKVReader) Err() error { return nil }

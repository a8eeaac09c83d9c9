package library

import (
	"tez/internal/event"
	"tez/internal/runtime"
)

// UnorderedInputName is the consumer side of every unsorted output.
const UnorderedInputName = "tez.unordered_input"

func init() {
	runtime.RegisterInput(UnorderedInputName, func() runtime.Input { return &UnorderedKVInput{} })
}

// UnorderedKVInput fetches its physical inputs and exposes them as one
// concatenated, unsorted runtime.KVReader.
type UnorderedKVInput struct {
	fs *fetchSet
}

// Initialize prepares the fetch machinery.
func (in *UnorderedKVInput) Initialize(ctx *runtime.Context) error {
	in.fs = newFetchSet(ctx)
	return nil
}

// HandleEvent accepts DataMovement / InputFailed events.
func (in *UnorderedKVInput) HandleEvent(ev event.Event) error { return in.fs.handleEvent(ev) }

// Start begins fetching.
func (in *UnorderedKVInput) Start() error { in.fs.start(); return nil }

// Reader blocks for all physical inputs, then returns a KVReader over
// their concatenation in input-index order.
func (in *UnorderedKVInput) Reader() (any, error) {
	runs, err := in.fs.wait()
	if err != nil {
		return nil, err
	}
	return newConcatReader(runs), nil
}

// Close stops fetchers.
func (in *UnorderedKVInput) Close() error { return in.fs.close() }

// concatReader iterates multiple encoded buffers back to back.
type concatReader struct {
	bufs []([]byte)
	cur  *BufferReader
	idx  int
	err  error
}

func newConcatReader(bufs [][]byte) *concatReader {
	return &concatReader{bufs: bufs}
}

// Next advances across buffer boundaries.
func (c *concatReader) Next() bool {
	for {
		if c.cur == nil {
			if c.idx >= len(c.bufs) {
				return false
			}
			c.cur = NewBufferReader(c.bufs[c.idx])
			c.idx++
		}
		if c.cur.Next() {
			return true
		}
		if err := c.cur.Err(); err != nil {
			c.err = err
			return false
		}
		c.cur = nil
	}
}

func (c *concatReader) Key() []byte   { return c.cur.Key() }
func (c *concatReader) Value() []byte { return c.cur.Value() }
func (c *concatReader) Err() error    { return c.err }

package library

import (
	"fmt"

	"tez/internal/plugin"
	"tez/internal/runtime"
)

// Registered names of the built-in processors.
const (
	MapProcessorName    = "tez.map_processor"
	ReduceProcessorName = "tez.reduce_processor"
)

func init() {
	runtime.RegisterProcessor(MapProcessorName, func() runtime.Processor { return &MapProcessor{} })
	runtime.RegisterProcessor(ReduceProcessorName, func() runtime.Processor { return &ReduceProcessor{} })
}

// MapFunc is user map logic: one input record to any number of output
// pairs. key and value are read-only (a DFS source's records are views of
// its blocks): copy them before changing them.
type MapFunc func(key, value []byte, out runtime.KVWriter) error

// ReduceFunc is user reduce logic: one grouped key to any number of output
// pairs.
type ReduceFunc func(key []byte, values [][]byte, out runtime.KVWriter) error

var (
	mapFuncs    = map[string]MapFunc{}
	reduceFuncs = map[string]ReduceFunc{}
)

// RegisterMapFunc and RegisterReduceFunc install named user functions —
// the Go substitute for shipping user classes in the processor payload.
func RegisterMapFunc(name string, f MapFunc) { mapFuncs[name] = f }

// RegisterReduceFunc installs a named reduce function.
func RegisterReduceFunc(name string, f ReduceFunc) { reduceFuncs[name] = f }

// FuncConfig is the payload of the map/reduce processors: the registered
// function to host.
type FuncConfig struct {
	Func string
}

// MapProcessor is the built-in map-side processor (§5.1): it streams every
// input's KVReader through the configured MapFunc into every output.
type MapProcessor struct {
	ctx *runtime.Context
	fn  MapFunc
}

// Initialize resolves the configured function.
func (p *MapProcessor) Initialize(ctx *runtime.Context) error {
	p.ctx = ctx
	var cfg FuncConfig
	if err := plugin.Decode(ctx.Payload, &cfg); err != nil {
		return err
	}
	fn, ok := mapFuncs[cfg.Func]
	if !ok {
		return fmt.Errorf("library: map func %q not registered", cfg.Func)
	}
	p.fn = fn
	return nil
}

// Run maps all inputs into all outputs.
func (p *MapProcessor) Run(inputs map[string]runtime.Input, outputs map[string]runtime.Output) error {
	w, err := fanOutWriter(outputs)
	if err != nil {
		return err
	}
	for name, in := range inputs {
		r, err := in.Reader()
		if err != nil {
			return err
		}
		kv, ok := r.(runtime.KVReader)
		if !ok {
			return fmt.Errorf("library: map input %s reader is %T, want KVReader", name, r)
		}
		for kv.Next() {
			if err := p.fn(kv.Key(), kv.Value(), w); err != nil {
				return err
			}
		}
		if err := kv.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Close is a no-op.
func (p *MapProcessor) Close() error { return nil }

// ReduceProcessor is the built-in reduce-side processor: it streams every
// input's GroupedKVReader through the configured ReduceFunc.
type ReduceProcessor struct {
	ctx *runtime.Context
	fn  ReduceFunc
}

// Initialize resolves the configured function.
func (p *ReduceProcessor) Initialize(ctx *runtime.Context) error {
	p.ctx = ctx
	var cfg FuncConfig
	if err := plugin.Decode(ctx.Payload, &cfg); err != nil {
		return err
	}
	fn, ok := reduceFuncs[cfg.Func]
	if !ok {
		return fmt.Errorf("library: reduce func %q not registered", cfg.Func)
	}
	p.fn = fn
	return nil
}

// Run reduces all inputs into all outputs.
func (p *ReduceProcessor) Run(inputs map[string]runtime.Input, outputs map[string]runtime.Output) error {
	w, err := fanOutWriter(outputs)
	if err != nil {
		return err
	}
	for name, in := range inputs {
		r, err := in.Reader()
		if err != nil {
			return err
		}
		g, ok := r.(runtime.GroupedKVReader)
		if !ok {
			return fmt.Errorf("library: reduce input %s reader is %T, want GroupedKVReader", name, r)
		}
		for g.Next() {
			if err := p.fn(g.Key(), g.Values(), w); err != nil {
				return err
			}
		}
		if err := g.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Close is a no-op.
func (p *ReduceProcessor) Close() error { return nil }

// fanOutWriter writes each pair to every output's KVWriter; a single
// output's writer is returned as it is.
func fanOutWriter(outputs map[string]runtime.Output) (runtime.KVWriter, error) {
	writers := make([]runtime.KVWriter, 0, len(outputs))
	for name, out := range outputs {
		w, err := out.Writer()
		if err != nil {
			return nil, err
		}
		kw, ok := w.(runtime.KVWriter)
		if !ok {
			return nil, fmt.Errorf("library: output %s writer is %T, want KVWriter", name, w)
		}
		writers = append(writers, kw)
	}
	if len(writers) == 1 {
		return writers[0], nil
	}
	return kvWriterFunc(func(k, v []byte) error {
		for _, w := range writers {
			if err := w.Write(k, v); err != nil {
				return err
			}
		}
		return nil
	}), nil
}

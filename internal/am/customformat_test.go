package am

import (
	"encoding/binary"
	"fmt"
	"testing"

	"tez/internal/dag"
	"tez/internal/event"
	"tez/internal/library"
	"tez/internal/plugin"
	"tez/internal/runtime"
	"tez/internal/shuffle"
)

// §5.5 (the Flink integration) argues that Tez "specifies no data format
// and in fact is not part of the data plane": an engine may move its own
// binary format through custom inputs/outputs. This test builds a little
// engine with a columnar-ish block format (two uint32 columns, stored
// column-major) and runs it through a one-to-one edge — no key-value
// anything involved. The framework only routes the DataMovement metadata.

// colBlock is the custom wire format.
type colBlock struct {
	a, b []uint32
}

func encodeBlock(blk colBlock) []byte {
	buf := make([]byte, 4+8*len(blk.a))
	binary.LittleEndian.PutUint32(buf, uint32(len(blk.a)))
	for i, v := range blk.a {
		binary.LittleEndian.PutUint32(buf[4+4*i:], v)
	}
	off := 4 + 4*len(blk.a)
	for i, v := range blk.b {
		binary.LittleEndian.PutUint32(buf[off+4*i:], v)
	}
	return buf
}

func decodeBlock(buf []byte) (colBlock, error) {
	if len(buf) < 4 {
		return colBlock{}, fmt.Errorf("short block")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) != 4+8*n {
		return colBlock{}, fmt.Errorf("block size mismatch")
	}
	blk := colBlock{a: make([]uint32, n), b: make([]uint32, n)}
	for i := 0; i < n; i++ {
		blk.a[i] = binary.LittleEndian.Uint32(buf[4+4*i:])
		blk.b[i] = binary.LittleEndian.Uint32(buf[4+4*n+4*i:])
	}
	return blk, nil
}

// colOutput ships one block per task over the shuffle service.
type colOutput struct {
	ctx *runtime.Context
	blk colBlock
}

func (o *colOutput) Initialize(ctx *runtime.Context) error { o.ctx = ctx; return nil }
func (o *colOutput) Writer() (any, error)                  { return &o.blk, nil } // the custom writer IS the block
func (o *colOutput) Close() ([]event.Event, error) {
	id := shuffle.OutputID{
		DAG: o.ctx.Meta.DAG, Vertex: o.ctx.Meta.Vertex, Name: o.ctx.Name,
		Task: o.ctx.Meta.Task, Attempt: o.ctx.Meta.Attempt,
	}
	if err := o.ctx.Services.Shuffle.Register(o.ctx.Services.Node, id,
		[][]byte{encodeBlock(o.blk)}, o.ctx.Services.Token); err != nil {
		return nil, err
	}
	return []event.Event{event.DataMovement{
		SrcVertex: o.ctx.Meta.Vertex, SrcTask: o.ctx.Meta.Task,
		SrcAttempt: o.ctx.Meta.Attempt, TargetVertex: o.ctx.Name,
		Payload: plugin.MustEncode(id),
	}}, nil
}

// colInput fetches the single upstream block.
type colInput struct {
	ctx *runtime.Context
	ids chan shuffle.OutputID
}

func (in *colInput) Initialize(ctx *runtime.Context) error {
	in.ctx = ctx
	in.ids = make(chan shuffle.OutputID, 4)
	return nil
}
func (in *colInput) HandleEvent(ev event.Event) error {
	if dm, ok := ev.(event.DataMovement); ok {
		var id shuffle.OutputID
		if err := plugin.Decode(dm.Payload, &id); err != nil {
			return err
		}
		in.ids <- id
	}
	return nil
}
func (in *colInput) Start() error { return nil }
func (in *colInput) Reader() (any, error) {
	select {
	case id := <-in.ids:
		data, err := in.ctx.Services.Shuffle.Fetch(id, 0, in.ctx.Services.Node, in.ctx.Services.Token)
		if err != nil {
			return nil, err
		}
		blk, err := decodeBlock(data)
		if err != nil {
			return nil, err
		}
		return blk, nil
	case <-in.ctx.Stop:
		return nil, fmt.Errorf("killed")
	}
}
func (in *colInput) Close() error { return nil }

// colProduce fills a block; colSum reduces it column-wise and stores the
// result through the standard DFS sink (formats may mix freely per edge).
type colProduce struct{ ctx *runtime.Context }

func (p *colProduce) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *colProduce) Run(_ map[string]runtime.Input, out map[string]runtime.Output) error {
	w, err := out["sum"].Writer()
	if err != nil {
		return err
	}
	blk := w.(*colBlock)
	for i := uint32(0); i < 100; i++ {
		blk.a = append(blk.a, i)
		blk.b = append(blk.b, 2*i)
	}
	return nil
}
func (p *colProduce) Close() error { return nil }

type colSum struct{ ctx *runtime.Context }

func (p *colSum) Initialize(ctx *runtime.Context) error { p.ctx = ctx; return nil }
func (p *colSum) Run(in map[string]runtime.Input, out map[string]runtime.Output) error {
	rd, err := in["produce"].Reader()
	if err != nil {
		return err
	}
	blk := rd.(colBlock)
	var sa, sb uint64
	for i := range blk.a {
		sa += uint64(blk.a[i])
		sb += uint64(blk.b[i])
	}
	w, err := out["sink"].Writer()
	if err != nil {
		return err
	}
	return w.(runtime.KVWriter).Write([]byte("sums"), []byte(fmt.Sprintf("%d/%d", sa, sb)))
}
func (p *colSum) Close() error { return nil }

func TestCustomBinaryFormatThroughCustomIO(t *testing.T) {
	runtime.RegisterOutput("amtest.col_out", func() runtime.Output { return &colOutput{} })
	runtime.RegisterInput("amtest.col_in", func() runtime.Input { return &colInput{} })
	runtime.RegisterProcessor("amtest.col_produce", func() runtime.Processor { return &colProduce{} })
	runtime.RegisterProcessor("amtest.col_sum", func() runtime.Processor { return &colSum{} })

	plat := newTestPlatform(3)
	defer plat.Stop()
	plat.EnableSecurity() // custom IO authenticates like the built-ins

	d := dag.New("columnar")
	prod := d.AddVertex("produce", plugin.Desc("amtest.col_produce", nil), 2)
	sum := d.AddVertex("sum", plugin.Desc("amtest.col_sum", nil), 2)
	sum.Sinks = []dag.DataSink{library.DFSSink("sink", "/out/col")}
	// The test's own output/input classes: the one case that writes the
	// pair out instead of calling a library constructor.
	d.Connect(prod, sum, dag.EdgeProperty{
		Movement: dag.OneToOne,
		Output:   plugin.Desc("amtest.col_out", nil),
		Input:    plugin.Desc("amtest.col_in", nil),
	})
	res, err := RunDAG(plat, Config{Name: "col"}, d)
	if err != nil || res.Status != DAGSucceeded {
		t.Fatalf("%v %v", res.Status, err)
	}
	// Both sum tasks saw the full 100-row block: sum(0..99)=4950, doubled
	// column = 9900.
	for _, f := range plat.FS.List("/out/col/part-") {
		data, err := plat.FS.ReadFile(f, "")
		if err != nil {
			t.Fatal(err)
		}
		r := library.NewPaddedReader(data)
		if !r.Next() || string(r.Value()) != "4950/9900" {
			t.Fatalf("file %s value %q", f, r.Value())
		}
	}
	if got := len(plat.FS.List("/out/col/part-")); got != 2 {
		t.Fatalf("parts = %d", got)
	}
}

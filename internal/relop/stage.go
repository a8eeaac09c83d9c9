package relop

// The stage language: what one Tez vertex (or one MR map/reduce phase)
// executes. StageSpec is carried as the opaque processor payload — the
// "code injection via configuration" pattern of §3.2.

import "fmt"

// Input modes.
const (
	// InTable reads a table's DFS root input: each record value is a
	// stripe (col.Stripe), decoded column by column.
	InTable = "table"
	// InSource reads a DFS root input of row-encoded record values: the
	// part files an MR chain's job leaves for the next.
	InSource = "source"
	// InGrouped reads an ordered, grouped shuffle edge.
	InGrouped = "grouped"
	// InBuild reads a broadcast edge of col.EncodeBatch frames into a
	// hash-join build table (not part of the stage's row stream).
	InBuild = "build"
	// InHash reads a hash-partitioned, unsorted edge: one col.EncodeBatch
	// frame per producer batch and partition, keyed by the join side's
	// tag byte (an aggregate's frames have an empty key). An aggregate
	// folds them into hashed groups; a join builds a hash table on side
	// 0 and probes it with side 1 (hashedge.go).
	InHash = "hash"
)

// StageInput declares one named input of the stage. Edge inputs are named
// after their source vertex (the runner's convention); root inputs after
// their data source.
type StageInput struct {
	Name string
	Mode string
	// Cols lists, ascending, the columns an InTable input decodes: those
	// the stage reads. The others read as null; nil decodes every column.
	Cols []int
	// BuildKeys evaluate the hash-table key on the input's rows: an
	// InBuild input's, and an InHash input's, whose key is the one its
	// producer partitioned the row by.
	BuildKeys []*Expr
	// CacheInRegistry shares an InBuild input's join table through the
	// container's object registry (§4.2) with the DAG's later tasks there,
	// which only read it; ablation toggles it off.
	CacheInRegistry bool
}

// GroupOp is the operation applied to a grouped input. A join has two
// sides, its values tagged 0 and 1 (EmitSpec.Tag): it writes each key's
// side-0 × side-1 product, side 0's columns first.
type GroupOp struct {
	// Kind: "join", "agg", "sort", "distinct".
	Kind string
	// agg: first GroupWidth value columns are the group key; aggregate i
	// reads value column Aggs[i].Col.
	GroupWidth int
	Aggs       []AggFuncSpec
	// Partial (agg): the producers pre-aggregate, so value column
	// Aggs[i].Col holds aggregate i's partial state, which merges.
	Partial bool
	// join fused with an aggregate whose group key is the join key: each
	// product row is projected by AggInput to the agg layout above
	// ([group..., args...]) and the group output is the aggregated rows.
	AggInput []*Expr
	// sort: stop after Limit rows (0 = all).
	Limit int
}

// folds reports whether the op runs through hashFold: an aggregate, fused
// or not.
func (g *GroupOp) folds() bool { return g.Kind == "agg" || g.Kind == "join" && g.AggInput != nil }

// AggFuncSpec is one aggregate function over a fixed value column.
type AggFuncSpec struct {
	Func string // sum, count, min, max, avg
	Col  int
}

// PipeOp is one step of a row pipeline.
type PipeOp struct {
	// Kind: "filter", "project", "hashjoin".
	Kind    string
	Filter  *Expr
	Project []*Expr
	HJ      *HashJoinSpec
}

// HashJoinSpec probes a build input's hash table; for each match the
// output row is probe ++ build.
type HashJoinSpec struct {
	// Input names the InBuild stage input.
	Input string
	// ProbeKeys evaluate the lookup key on the probe row.
	ProbeKeys []*Expr
}

// Emit kinds.
const (
	// EmitShuffle writes (orderable key, row) to a scatter-gather edge.
	EmitShuffle = "shuffle"
	// EmitBroadcast writes col.EncodeBatch frames to a broadcast edge (read
	// by an InBuild input).
	EmitBroadcast = "broadcast"
	// EmitSink writes rows to a DFS data sink.
	EmitSink = "sink"
	// EmitInitializer sends each row's key value to a data-source
	// initializer as an InputInitializerEvent (dynamic partition pruning).
	EmitInitializer = "initializer"
	// EmitVM sends the stage's rows to a VertexManager as a
	// VertexManagerEvent payload (sample histograms).
	EmitVM = "vm"
)

// observesOrder reports whether an emit of kind sees the order a fold
// writes its groups in (hashFold.emit). A shuffle does not: an ordered
// edge sorts by (key, value), a hash edge feeds an order-free fold, and a
// limited or sampling emit keeps records by their bytes alone.
func observesOrder(kind string) bool { return kind != EmitShuffle }

// EmitSpec writes the stage's rows somewhere, after its own pipeline.
// For "map" stages Input names which stage input's rows feed this emit
// (union branches differ); for grouped stages Input is empty (group
// output).
type EmitSpec struct {
	Input  string
	Output string // output/sink name, or target vertex for initializer/vm
	Kind   string
	Pipe   []PipeOp
	// shuffle: key expressions and per-key descending flags.
	Keys []*Expr
	Desc []bool
	// Tag >= 0 prefixes values with a join-side tag byte.
	Tag int
	// Limit > 0 (shuffle into a limited sort) writes only the task's Limit
	// smallest (key, value) records, at task end.
	Limit int
	// Aggs (shuffle into a partial agg stage) pre-aggregates: the rows,
	// laid out [group..., args...] with the group the first len(Keys)
	// columns, fold into partial states by group, and the emit writes one
	// row [group..., state...] per group (partial.go).
	Aggs []AggFuncSpec
	// SampleRate in (0,1] emits only a deterministic sample of rows.
	SampleRate float64
	// initializer: the data source name at the target vertex.
	TargetSource string
}

// validateEmit applies validateExpr to every expression of an emit.
func validateEmit(es *EmitSpec) error {
	exprs := append([]*Expr{}, es.Keys...)
	for i := range es.Pipe {
		switch op := &es.Pipe[i]; op.Kind {
		case "filter":
			exprs = append(exprs, op.Filter)
		case "project":
			exprs = append(exprs, op.Project...)
		case "hashjoin":
			if op.HJ == nil {
				return fmt.Errorf("relop: hashjoin op without spec")
			}
			exprs = append(exprs, op.HJ.ProbeKeys...)
		}
	}
	for _, e := range exprs {
		if err := validateExpr(e); err != nil {
			return err
		}
	}
	return nil
}

// StageSpec is the full program of one stage. It is the same for every
// task of a vertex and deep, so it stays gob-encoded (plugin's generic
// path) and is decoded once per container and payload for the session,
// not per task or per DAG: loadStageSpec shares the decoded value,
// read-only, through the object registry.
type StageSpec struct {
	Inputs []StageInput
	Group  *GroupOp // nil for map stages
	Emits  []EmitSpec
}

package library

import (
	"tez/internal/dfs"
	"tez/internal/plugin"
)

// Binary codecs of the library's hot payloads: the ones encoded or decoded
// once per task (FuncConfig, DFSSinkConfig, OrderedPartitionedConfig,
// SplitAssignment), per producer partition (DMInfo, VMStats), per fetch
// (DMInfo) or per vertex in a DAG of two vertices (SplitSourceConfig).
// Each implements encoding.BinaryMarshaler and BinaryUnmarshaler, which is
// what makes plugin.Encode/Decode skip gob for it (plugin/wire.go has the
// format and its strictness rules). Fields are written in declaration
// order; the zero value of every field means "default"; an empty slice
// and a nil one encode alike and decode as nil. A new field must be added
// to both methods of its type — TestQuickPayloadRoundTrip fails until it
// is. Nothing reads payloads written by another binary, so a layout change
// needs no compatibility path, only a new plugin wire version if old and
// new bytes could ever meet.

// Payload kinds, one per type, checked on decode.
const (
	kindDMInfo byte = iota + 1
	kindVMStats
	kindSplitAssignment
	kindFuncConfig
	kindDFSSinkConfig
	kindSplitSourceConfig
	kindOrderedPartitionedConfig
)

// intSlack covers the header and the varints of a payload's fixed fields
// when sizing an encode buffer, so that encoding allocates once.
const intSlack = 48

// MarshalBinary implements encoding.BinaryMarshaler.
func (d DMInfo) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, intSlack+len(d.ID.DAG)+len(d.ID.Vertex)+len(d.ID.Name)+len(d.Codec)+3*len(d.RunSizes))
	b = plugin.AppendHeader(b, kindDMInfo)
	b = plugin.AppendString(b, d.ID.DAG)
	b = plugin.AppendString(b, d.ID.Vertex)
	b = plugin.AppendString(b, d.ID.Name)
	b = plugin.AppendInt(b, int64(d.ID.Task))
	b = plugin.AppendInt(b, int64(d.ID.Attempt))
	b = plugin.AppendInt(b, int64(d.Partition))
	b = plugin.AppendInt(b, d.RawSize)
	b = plugin.AppendString(b, d.Codec)
	return appendInt64s(b, d.RunSizes), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (d *DMInfo) UnmarshalBinary(data []byte) error {
	r := plugin.NewReader(data, kindDMInfo)
	var v DMInfo
	v.ID.DAG = r.String()
	v.ID.Vertex = r.String()
	v.ID.Name = r.String()
	v.ID.Task = r.Int()
	v.ID.Attempt = r.Int()
	v.Partition = r.Int()
	v.RawSize = r.Int64()
	v.Codec = r.String()
	v.RunSizes = readInt64s(&r)
	if err := r.Finish(); err != nil {
		return err
	}
	*d = v
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s VMStats) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, intSlack+3*len(s.PartitionSizes))
	b = plugin.AppendHeader(b, kindVMStats)
	return appendInt64s(b, s.PartitionSizes), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *VMStats) UnmarshalBinary(data []byte) error {
	r := plugin.NewReader(data, kindVMStats)
	sizes := readInt64s(&r)
	if err := r.Finish(); err != nil {
		return err
	}
	s.PartitionSizes = sizes
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (a SplitAssignment) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, intSlack+96*len(a.Splits)) // a guess; append grows it
	b = plugin.AppendHeader(b, kindSplitAssignment)
	b = plugin.AppendUvarint(b, uint64(len(a.Splits)))
	for _, s := range a.Splits {
		b = plugin.AppendString(b, s.Path)
		b = plugin.AppendInt(b, s.Offset)
		b = plugin.AppendInt(b, s.Length)
		b = appendStrings(b, s.Hosts)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (a *SplitAssignment) UnmarshalBinary(data []byte) error {
	r := plugin.NewReader(data, kindSplitAssignment)
	var splits []dfs.Split
	// A split is at least a path length, two offsets and a host count.
	if n := r.Count(4); n > 0 {
		splits = make([]dfs.Split, n)
		for i := range splits {
			s := &splits[i]
			s.Path = r.String()
			s.Offset = r.Int64()
			s.Length = r.Int64()
			s.Hosts = readStrings(&r)
		}
	}
	if err := r.Finish(); err != nil {
		return err
	}
	a.Splits = splits
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c FuncConfig) MarshalBinary() ([]byte, error) { return marshalString(kindFuncConfig, c.Func) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *FuncConfig) UnmarshalBinary(data []byte) error {
	return unmarshalString(data, kindFuncConfig, &c.Func)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c DFSSinkConfig) MarshalBinary() ([]byte, error) {
	return marshalString(kindDFSSinkConfig, c.Path)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *DFSSinkConfig) UnmarshalBinary(data []byte) error {
	return unmarshalString(data, kindDFSSinkConfig, &c.Path)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c SplitSourceConfig) MarshalBinary() ([]byte, error) {
	b := plugin.AppendHeader(nil, kindSplitSourceConfig)
	b = appendStrings(b, c.Paths)
	b = plugin.AppendInt(b, c.DesiredSplitSize)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *SplitSourceConfig) UnmarshalBinary(data []byte) error {
	r := plugin.NewReader(data, kindSplitSourceConfig)
	var v SplitSourceConfig
	v.Paths = readStrings(&r)
	v.DesiredSplitSize = r.Int64()
	if err := r.Finish(); err != nil {
		return err
	}
	*c = v
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c OrderedPartitionedConfig) MarshalBinary() ([]byte, error) {
	b := plugin.AppendHeader(nil, kindOrderedPartitionedConfig)
	b = plugin.AppendString(b, c.Partitioner.Kind)
	b = plugin.AppendUvarint(b, uint64(len(c.Partitioner.Points)))
	for _, p := range c.Partitioner.Points {
		b = plugin.AppendBytes(b, p)
	}
	b = plugin.AppendString(b, c.Combiner)
	b = plugin.AppendString(b, c.Codec)
	b = plugin.AppendInt(b, c.SortBytes)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *OrderedPartitionedConfig) UnmarshalBinary(data []byte) error {
	r := plugin.NewReader(data, kindOrderedPartitionedConfig)
	var v OrderedPartitionedConfig
	v.Partitioner.Kind = r.String()
	if n := r.Count(1); n > 0 {
		v.Partitioner.Points = make([][]byte, n)
		for i := range v.Partitioner.Points {
			v.Partitioner.Points[i] = r.Bytes()
		}
	}
	v.Combiner = r.String()
	v.Codec = r.String()
	v.SortBytes = r.Int64()
	if err := r.Finish(); err != nil {
		return err
	}
	*c = v
	return nil
}

// marshalString and unmarshalString are the codec of a one-string config.
func marshalString(kind byte, s string) ([]byte, error) {
	b := make([]byte, 0, intSlack+len(s))
	b = plugin.AppendHeader(b, kind)
	return plugin.AppendString(b, s), nil
}

func unmarshalString(data []byte, kind byte, out *string) error {
	r := plugin.NewReader(data, kind)
	s := r.String()
	if err := r.Finish(); err != nil {
		return err
	}
	*out = s
	return nil
}

// appendInt64s and readInt64s are the codec of a count-prefixed list of
// integers; the count is bounded by the bytes that remain.
func appendInt64s(b []byte, ns []int64) []byte {
	b = plugin.AppendUvarint(b, uint64(len(ns)))
	for _, n := range ns {
		b = plugin.AppendInt(b, n)
	}
	return b
}

func readInt64s(r *plugin.Reader) []int64 {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ns := make([]int64, n)
	for i := range ns {
		ns[i] = r.Int64()
	}
	return ns
}

func appendStrings(b []byte, ss []string) []byte {
	b = plugin.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = plugin.AppendString(b, s)
	}
	return b
}

func readStrings(r *plugin.Reader) []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.String()
	}
	return ss
}

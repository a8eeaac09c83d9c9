package library

import (
	"bytes"
	"fmt"
	"sort"
)

// Partitioner maps a key to a partition in [0, n).
type Partitioner interface {
	Partition(key []byte, n int) int
}

// HashPartitioner is the default: FNV-1a of the key modulo n.
type HashPartitioner struct{}

// Partition hashes key into [0, n).
func (HashPartitioner) Partition(key []byte, n int) int {
	if n <= 1 {
		return 0
	}
	// hash/fnv's New32a, inlined: the same values without a hash.Hash32
	// behind an interface for every record.
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h % uint32(n))
}

// RangePartitioner routes keys by comparison against sorted split points —
// the partitioner behind sample-based global ordering (Pig ORDER BY, §5.3).
// Points must be sorted ascending; with p points it produces p+1 ranges.
type RangePartitioner struct {
	Points [][]byte
}

// Partition returns the index of the first point >= key, i.e. keys are
// routed to the range they fall in; partition i holds keys <= Points[i].
func (r *RangePartitioner) Partition(key []byte, n int) int {
	idx := sort.Search(len(r.Points), func(i int) bool {
		return bytes.Compare(key, r.Points[i]) <= 0
	})
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// PartitionerSpec selects and configures a partitioner in an output's
// payload.
type PartitionerSpec struct {
	// Kind is "hash" (default) or "range".
	Kind string
	// Points configures a range partitioner.
	Points [][]byte
}

// New builds the configured partitioner.
func (s PartitionerSpec) New() (Partitioner, error) {
	switch s.Kind {
	case "", "hash":
		return HashPartitioner{}, nil
	case "range":
		return &RangePartitioner{Points: s.Points}, nil
	default:
		return nil, fmt.Errorf("library: unknown partitioner %q", s.Kind)
	}
}

// SplitPoints derives p-1 evenly spaced split points from a sorted sample,
// yielding p balanced ranges (the histogram step of the Pig skew/order
// pipelines).
func SplitPoints(sortedSample [][]byte, p int) [][]byte {
	if p <= 1 || len(sortedSample) == 0 {
		return nil
	}
	points := make([][]byte, 0, p-1)
	for i := 1; i < p; i++ {
		idx := i * len(sortedSample) / p
		if idx >= len(sortedSample) {
			idx = len(sortedSample) - 1
		}
		points = append(points, append([]byte(nil), sortedSample[idx]...))
	}
	return points
}

package sparklike

import (
	"fmt"
	"sync/atomic"

	"tez/internal/col"
	"tez/internal/library"
	"tez/internal/shuffle"
)

// RunPartition executes the partitioning job on the held executor pool:
// map tasks read the table splits, bucket rows by key and publish the
// buckets through the shuffle service; reduce tasks fetch their bucket and
// write the output. The daemon keeps its containers for the whole
// application regardless of load.
func (s *Service) RunPartition(jobID string, job PartitionJob) error {
	fs := s.plat.FS
	var splits []library.SplitAssignment
	for _, f := range job.Table.Files {
		ss, err := fs.Splits(f, 0)
		if err != nil {
			return err
		}
		for _, sp := range ss {
			splits = append(splits, library.SplitAssignment{Splits: splitSlice(sp)})
		}
	}
	dagID := s.name + "/" + jobID
	part := library.HashPartitioner{}
	node := func(i int) string {
		return string(s.containers[i%len(s.containers)].Node())
	}

	// Map phase.
	var mapTasks []func() error
	var seq int64
	for i, asn := range splits {
		i, asn := i, asn
		mapTasks = append(mapTasks, func() error {
			buckets := make([][]byte, job.Partitions)
			var key, val []byte
			for _, sp := range asn.Splits {
				data, err := fs.ReadAt(sp.Path, node(i), sp.Offset, sp.Length)
				if err != nil {
					return err
				}
				r := col.NewStripeRows(library.NewPaddedReader(data))
				for r.Next() {
					key = col.AppendKeyEncoded(key[:0], r.Batch().Col(job.KeyCol), r.Row())
					val = col.AppendRowEncoded(val[:0], r.Batch(), r.Row())
					p := part.Partition(key, job.Partitions)
					buckets[p] = library.AppendRecord(buckets[p], key, val)
				}
				if err := r.Err(); err != nil {
					return err
				}
			}
			id := shuffle.OutputID{DAG: dagID, Vertex: "map", Name: "reduce", Task: i}
			_ = atomic.AddInt64(&seq, 1)
			return library.RegisterShuffleOutput(s.plat.Shuffle, node(i), id, buckets)
		})
	}
	if err := s.runTasks(mapTasks); err != nil {
		return err
	}

	// Reduce phase: one task per partition writes the bucket out.
	var redTasks []func() error
	for p := 0; p < job.Partitions; p++ {
		p := p
		redTasks = append(redTasks, func() error {
			w, err := fs.Create(fmt.Sprintf("%s/part-%05d", job.OutPath, p), node(p))
			if err != nil {
				return err
			}
			fetcher := &shuffle.Fetcher{Service: s.plat.Shuffle}
			for m := range splits {
				id := shuffle.OutputID{DAG: dagID, Vertex: "map", Name: "reduce", Task: m}
				data, _, err := fetcher.Fetch(id, p, node(p))
				if err != nil {
					return err
				}
				r := library.NewBufferReader(data)
				for r.Next() {
					if _, err := w.Write(library.AppendRecord(nil, nil, r.Value())); err != nil {
						return err
					}
				}
				if err := r.Err(); err != nil {
					return err
				}
			}
			return w.Close()
		})
	}
	if err := s.runTasks(redTasks); err != nil {
		return err
	}
	s.plat.Shuffle.DeleteDAG(dagID)
	return nil
}

// splitSlice adapts one dfs split into the slice SplitAssignment wants.
func splitSlice[T any](s T) []T { return []T{s} }

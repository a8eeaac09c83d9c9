package library

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sync"
)

// The map-side sort buffer of the ordered shuffle output: record bytes
// are appended to one contiguous arena and indexed by compact
// {key prefix, offset, lengths, partition} entries, so writing a record
// allocates nothing (amortised) and sorting moves 24-byte index entries
// ordered by an integer instead of boxed key/value copies ordered by
// byte-slice comparisons — the in-process analog of Tez's ExternalSorter
// buffer, where the same trick (sort a pointer index over a byte buffer)
// is what makes the sort cache- and GC-friendly.

// recRef locates one record in the arena and caches the first eight key
// bytes, so that most ordering decisions never dereference the arena.
type recRef struct {
	prefix                uint64 // keyPrefix of the key
	off, klen, vlen, part uint32
}

const recRefSize = 24 // bytes charged against the sort budget per entry

// maxArenaBytes is the largest arena a recRef's 32-bit offsets and
// lengths can address; the output spills a run before crossing it.
const maxArenaBytes = math.MaxUint32

// radixDigits is how many key-prefix bytes the radix passes order, the most
// significant ones that vary. Four split a buffer into up to 2^32 buckets,
// more than it has records; measured on word, row-encoded number and
// random keys, a fifth pass costs more than the few comparisons it saves.
const radixDigits = 4

// keyPrefix is the first eight bytes of k as a big-endian integer, zero-
// padded on the right. Integer order on prefixes agrees with byte order
// on keys wherever the prefixes differ. Equal prefixes decide nothing:
// "ab" and "ab\x00" pad to the same integer (see compareSamePrefix).
func keyPrefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var b [8]byte
	copy(b[:], k)
	return binary.BigEndian.Uint64(b[:])
}

// compareSamePrefix orders two records by (key, value) given that their
// keys have equal keyPrefix. Keys that both run past the prefix are
// compared on the remainder. Otherwise at least one key ends inside the
// prefix, the other key's bytes up to the prefix's end are the same ones
// followed by zeros, so the shorter key is a prefix of the longer and
// sorts first, and equal lengths mean equal keys.
func compareSamePrefix(ak, av, bk, bv []byte) int {
	if len(ak) > 8 && len(bk) > 8 {
		if c := bytes.Compare(ak[8:], bk[8:]); c != 0 {
			return c
		}
	} else if len(ak) != len(bk) {
		return cmp.Compare(len(ak), len(bk))
	}
	return bytes.Compare(av, bv)
}

// sortBuffer is an arena plus its index. It is single-writer (the task's
// processor goroutine) and reused across tasks via sortBufferPool, which
// is what keeps the sort's scratch from being a per-task cost.
type sortBuffer struct {
	arena []byte
	refs  []recRef
	// scratch is the radix sort's second buffer and partOff the sorted
	// index's partition boundaries (partition p is refs[partOff[p]:
	// partOff[p+1]]); both are set by sort and keep their capacity.
	scratch []recRef
	partOff []int
	// hist is sort's histogram of every prefix byte: 16 KiB that, on the
	// stack, a fresh task goroutine would grow its stack to hold.
	hist [8][256]int
}

var sortBufferPool = sync.Pool{New: func() any { return new(sortBuffer) }}

// add appends one record. The caller keeps part inside the partition
// count it later passes to sort and the arena under maxArenaBytes.
func (sb *sortBuffer) add(part int, k, v []byte) {
	off := len(sb.arena)
	sb.arena = append(sb.arena, k...)
	sb.arena = append(sb.arena, v...)
	sb.refs = append(sb.refs, recRef{
		prefix: keyPrefix(k),
		off:    uint32(off),
		klen:   uint32(len(k)),
		vlen:   uint32(len(v)),
		part:   uint32(part),
	})
}

// raw returns n arena bytes at off. key and val reach an index entry
// through a pointer and the sort's comparison passes fields, never the
// entry: handed the 24-byte struct by value the compiler spills it field
// by field and copies it back in one wide load, which stalls the store
// buffer on every comparison (it doubled the comparison's cost).
func (sb *sortBuffer) raw(off, n uint32) []byte {
	return sb.arena[off : uint64(off)+uint64(n)]
}

func (sb *sortBuffer) key(r *recRef) []byte { return sb.raw(r.off, r.klen) }
func (sb *sortBuffer) val(r *recRef) []byte { return sb.raw(r.off+r.klen, r.vlen) }

// used is the memory charged against the SortBytes budget.
func (sb *sortBuffer) used() int64 {
	return int64(len(sb.arena)) + int64(len(sb.refs))*recRefSize
}

// sort orders the index by (partition, key, value) and records where each
// of the parts partitions starts. The value tiebreak makes the order — and
// therefore every downstream merge — a pure function of the record
// multiset, so spill counts and merge-tree shape never change the output
// bytes.
//
// It is a least-significant-digit radix sort over the cached key prefix:
// one stable counting pass for each of the radixDigits most significant
// prefix bytes that vary and a last one on the partition, none of which
// reads the arena. What they leave undecided is settled inside runs of
// records that agree on the partition and the sorted bits — by the rest
// of the prefix, then the rest of the key, then the value — and a run
// already in order (a key written many times with one value) costs one
// comparison per record.
func (sb *sortBuffer) sort(parts int) {
	n := len(sb.refs)
	if cap(sb.partOff) < parts+1 {
		sb.partOff = make([]int, parts+1)
	}
	off := sb.partOff[:parts+1]
	sb.partOff = off
	clear(off)
	if n == 0 {
		return
	}
	// Scratch as large as the index, so the two can trade places after an
	// odd number of passes without either ever shrinking.
	if cap(sb.scratch) < cap(sb.refs) {
		sb.scratch = make([]recRef, cap(sb.refs))
	}
	src, dst := sb.refs, sb.scratch[:n]

	// One scan fills the histogram of every prefix byte and the
	// partition sizes.
	hist := &sb.hist
	clear(hist[:])
	for i := range src {
		p := src[i].prefix
		hist[0][byte(p)]++
		hist[1][byte(p>>8)]++
		hist[2][byte(p>>16)]++
		hist[3][byte(p>>24)]++
		hist[4][byte(p>>32)]++
		hist[5][byte(p>>40)]++
		hist[6][byte(p>>48)]++
		hist[7][byte(p>>56)]++
		off[src[i].part+1]++
	}
	// Radix passes go to the radixDigits most significant bytes that
	// vary; bits below the lowest of them are left to the comparison.
	var digits [8]int
	nd := 0
	for d := 7; d >= 0 && nd < radixDigits; d-- {
		if hist[d][byte(src[0].prefix>>(uint(d)*8))] != n {
			digits[nd] = d
			nd++
		}
	}
	low := uint(0)
	if nd > 0 {
		low = uint(digits[nd-1]) * 8
	}
	for k := nd - 1; k >= 0; k-- {
		h, shift := &hist[digits[k]], uint(digits[k])*8
		pos := 0
		for b, c := range h {
			h[b], pos = pos, pos+c
		}
		for i := range src {
			b := byte(src[i].prefix >> shift)
			dst[h[b]] = src[i]
			h[b]++
		}
		src, dst = dst, src
	}
	for p := 1; p <= parts; p++ {
		off[p] += off[p-1] // off[p] is now where partition p starts
	}
	if parts > 1 {
		for i := range src {
			p := src[i].part
			dst[off[p]] = src[i]
			off[p]++
		}
		src, dst = dst, src
		// Each cursor ran to its partition's end, the next one's start.
		copy(off[1:], off[:parts])
		off[0] = 0
	}
	sb.refs, sb.scratch = src, dst

	compare := func(a, b recRef) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		// compareSamePrefix, on index entries: short keys are settled
		// without reading the arena at all.
		if a.klen > 8 && b.klen > 8 {
			if c := bytes.Compare(sb.raw(a.off+8, a.klen-8), sb.raw(b.off+8, b.klen-8)); c != 0 {
				return c
			}
		} else if a.klen != b.klen {
			return cmp.Compare(a.klen, b.klen)
		}
		return bytes.Compare(sb.raw(a.off+a.klen, a.vlen), sb.raw(b.off+b.klen, b.vlen))
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && src[j].prefix>>low == src[i].prefix>>low && src[j].part == src[i].part {
			j++
		}
		if run := src[i:j]; len(run) > 1 && !slices.IsSortedFunc(run, compare) {
			slices.SortFunc(run, compare)
		}
		i = j
	}
}

// partSpan returns the sorted index segment of one partition, valid from
// sort until the next add.
func (sb *sortBuffer) partSpan(part int) []recRef {
	return sb.refs[sb.partOff[part]:sb.partOff[part+1]]
}

// reset keeps capacity for the next task in a reused container.
func (sb *sortBuffer) reset() {
	sb.arena = sb.arena[:0]
	sb.refs = sb.refs[:0]
}

// refsReader iterates a sorted index segment as a kvStream.
type refsReader struct {
	sb   *sortBuffer
	refs []recRef
	cur  recRef
	i    int
}

func (r *refsReader) Next() bool {
	if r.i >= len(r.refs) {
		return false
	}
	r.cur = r.refs[r.i]
	r.i++
	return true
}

func (r *refsReader) Key() []byte   { return r.sb.key(&r.cur) }
func (r *refsReader) Value() []byte { return r.sb.val(&r.cur) }
func (r *refsReader) Err() error    { return nil }

// runBufPool recycles spill-run and partition-encode buffers across
// spills and container-reused tasks. Only producer-side buffers go
// through it: shuffle.Service.Register copies partitions on entry, so a
// registered buffer may be reused immediately, whereas reduce-side run
// buffers are exposed zero-copy to processors and must not be recycled.
var runBufPool = sync.Pool{New: func() any { return new([]byte) }}

func getRunBuf() []byte {
	b := runBufPool.Get().(*[]byte)
	return (*b)[:0]
}

func putRunBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	runBufPool.Put(&b)
}

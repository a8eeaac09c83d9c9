package relop

import (
	"encoding/binary"
	"errors"
	"math"
	"math/big"
	"math/bits"

	"tez/internal/row"
)

// Aggregate states (DESIGN §13, "Aggregate states"). Every state is a pure
// function of its group's multiset of arguments, so the rows of a group may
// fold in any order, on any task, and partial states may merge in any
// order: the bytes written are the same.

// aggState accumulates one aggregate over its non-null arguments: count
// counts them; a sum keeps ints in a 128-bit integer and finite floats in
// a fixed-point accumulator, both exact, and NaN and the infinities in
// flags, and rounds once, when its result is written (an ints-only sum
// never touches float state); min and max keep the least and greatest
// argument under row.CompareTotal, which leaves no ties to arrival order.
type aggState struct {
	count int64
	ilo   uint64 // the ints' sum, two's complement, high word ihi
	ihi   int64
	facc  *floatAcc // the finite floats' sum when flags&hasFloat; kept across resets
	flags uint8
	min   row.Value
	max   row.Value
}

// aggState flags.
const (
	hasFloat uint8 = 1 << iota // facc holds this state's floats
	sawNaN
	sawPosInf
	sawNegInf
	hasExtremes // min and max hold values
)

// reset empties st, keeping its float accumulator's storage.
func (st *aggState) reset() {
	acc := st.facc
	*st = aggState{facc: acc}
}

// addInt adds x to the int sum.
func (st *aggState) addInt(x int64) {
	var c uint64
	st.ilo, c = bits.Add64(st.ilo, uint64(x), 0)
	st.ihi += int64(c) + x>>63
}

// addInts adds every x in xs to the int sum.
func (st *aggState) addInts(xs []int64) {
	lo, hi := st.ilo, st.ihi
	for _, x := range xs {
		var c uint64
		lo, c = bits.Add64(lo, uint64(x), 0)
		hi += int64(c) + x>>63
	}
	st.ilo, st.ihi = lo, hi
}

// addFloat adds x to the float sum: a NaN or an infinity sets its flag,
// a zero of either sign adds nothing.
func (st *aggState) addFloat(x float64) {
	b := math.Float64bits(x)
	switch e := int(b>>52) & 0x7FF; {
	case e == 0x7FF && b<<12 != 0:
		st.flags |= sawNaN
	case e == 0x7FF && b>>63 == 0:
		st.flags |= sawPosInf
	case e == 0x7FF:
		st.flags |= sawNegInf
	case b<<1 != 0:
		st.acc().add(b)
	}
}

// addFloats adds every x in xs to the float sum, as addFloat does, with
// the accumulator's range and carry budget held in locals.
func (st *aggState) addFloats(xs []float64) {
	var a *floatAcc
	lo, hi, adds := 0, 0, 0
	for _, x := range xs {
		b := math.Float64bits(x)
		if b>>52&0x7FF == 0x7FF || b<<1 == 0 {
			st.addFloat(x)
			continue
		}
		if a == nil {
			a = st.acc()
			lo, hi, adds = a.lo, a.hi, a.adds
		}
		k, l, h := term(b)
		a.chunk[k] += l
		a.chunk[k+1] += h
		lo, hi = min(lo, k), max(hi, k+1)
		if adds++; adds >= accCarryEvery {
			a.lo, a.hi = lo, hi
			a.carry()
			lo, hi, adds = a.lo, a.hi, 0
		}
	}
	if a != nil {
		a.lo, a.hi, a.adds = lo, hi, adds
	}
}

// addValue adds a boxed argument to the sum: ints and floats as above, a
// string as 0 (AsFloat's coercion).
func (st *aggState) addValue(v row.Value) {
	switch v.Kind {
	case row.KindInt:
		st.addInt(v.Int)
	case row.KindFloat:
		st.addFloat(v.Float)
	}
}

// acc returns the float accumulator, marking it in use (cleared on first
// use after a reset).
func (st *aggState) acc() *floatAcc {
	if st.flags&hasFloat == 0 {
		if st.facc == nil {
			st.facc = new(floatAcc)
		}
		st.facc.clear()
		st.flags |= hasFloat
	}
	return st.facc
}

// observeExtremes folds a chunk's least and greatest argument into min and
// max.
func (st *aggState) observeExtremes(mn, mx row.Value) {
	if st.flags&hasExtremes == 0 || row.CompareTotal(mn, st.min) < 0 {
		st.min = mn
	}
	if st.flags&hasExtremes == 0 || row.CompareTotal(mx, st.max) > 0 {
		st.max = mx
	}
	st.flags |= hasExtremes
}

// sum returns the exact sum of the arguments divided by div (1 for a sum,
// the count for an average), rounded once to the nearest float64, ties to
// even: NaN if a NaN or both infinities were added, else an infinity if
// one was, else the rounded quotient, +0 when it is zero.
func (st *aggState) sum(div int64) float64 {
	switch f := st.flags; {
	case f&sawNaN != 0 || f&(sawPosInf|sawNegInf) == sawPosInf|sawNegInf:
		return math.NaN()
	case f&sawPosInf != 0:
		return math.Inf(1)
	case f&sawNegInf != 0:
		return math.Inf(-1)
	}
	x := int64(st.ilo)
	if st.flags&hasFloat == 0 && st.ihi == x>>63 {
		// The sum is an int64; while it and div are exact float64s, one
		// IEEE division rounds the quotient once.
		if div == 1 {
			return float64(x)
		}
		if -1<<53 <= x && x <= 1<<53 && div <= 1<<53 {
			return float64(x) / float64(div)
		}
	}
	if st.flags&hasFloat != 0 && div == 1 && st.ilo == 0 && st.ihi == 0 {
		// A sum of floats alone rounds from its leading chunks.
		return st.facc.round()
	}
	// num/2^1074 is the sum: the accumulator's fixed point plus the ints.
	num := new(big.Int)
	if st.flags&hasFloat != 0 {
		st.facc.bigInt(num)
	}
	ints := new(big.Int).SetInt64(st.ihi)
	ints.Lsh(ints, 64).Add(ints, new(big.Int).SetUint64(st.ilo))
	num.Add(num, ints.Lsh(ints, accScale))
	den := new(big.Int).SetInt64(div)
	f, _ := new(big.Rat).SetFrac(num, den.Lsh(den, accScale)).Float64()
	return f
}

// floatAcc is an exact sum of finite float64s: a small superaccumulator
// (Neal, "Fast exact summation using small and large superaccumulators",
// arXiv:1505.05571). The sum is Σ chunk[i]·2^(32i) · 2^-1074: every
// finite float64 is an integer multiple of 2^-1074, the least subnormal,
// and its 53-bit integer significand lands in two adjacent chunks. Chunks
// are signed and may run past 32 bits between carries; carry brings every
// chunk but the last into [-2^31, 2^31), a form each sum has exactly one
// of, whose leading non-zero chunk has the sum's sign. Only chunks lo..hi
// may be non-zero, so a sum of floats of like magnitude touches a few.
type floatAcc struct {
	chunk  [accChunks]int64
	adds   int // terms added since the last carry
	lo, hi int // lo > hi: every chunk is zero
}

const (
	// accScale: the accumulator counts units of 2^-1074.
	accScale = 1074
	// accChunks: a float64's significand shifted by its exponent spans
	// bits 0..2097 of the fixed point (chunks 0..65 for a term); two more
	// chunks hold the carries of up to 2^63 terms.
	accChunks = 68
	// accCarryEvery bounds the terms between carries: a term adds under
	// 2^52 to a chunk, so 2^10 terms leave every int64 chunk far from
	// overflow.
	accCarryEvery = 1 << 10
)

// clear zeroes the sum.
func (a *floatAcc) clear() {
	if a.lo <= a.hi {
		clear(a.chunk[a.lo : a.hi+1])
	}
	a.adds, a.lo, a.hi = 0, accChunks, -1
}

// add adds the finite, non-zero float64 whose bits are b.
func (a *floatAcc) add(b uint64) {
	k, lo, hi := term(b)
	a.chunk[k] += lo
	a.chunk[k+1] += hi
	a.lo, a.hi = min(a.lo, k), max(a.hi, k+1)
	a.added()
}

// term splits the finite, non-zero float64 whose bits are b into what it
// adds to chunks k and k+1.
func term(b uint64) (k int, lo, hi int64) {
	e := int(b>>52) & 0x7FF
	m := b & (1<<52 - 1)
	if e == 0 {
		e = 1 // subnormal: the least exponent, no implicit bit
	} else {
		m |= 1 << 52
	}
	s := uint(e - 1) // the term is m·2^s units
	r := s & 31
	lo = int64(m << r & (1<<32 - 1))
	hi = int64(m >> (32 - r))
	if b>>63 != 0 {
		lo, hi = -lo, -hi
	}
	return int(s >> 5), lo, hi
}

// added records one term added, carrying when the budget is spent.
func (a *floatAcc) added() {
	if a.adds++; a.adds >= accCarryEvery {
		a.carry()
	}
}

// carry brings chunks lo..hi, and the chunks their carries reach, into
// the carried form, and narrows lo..hi to the non-zero ones.
func (a *floatAcc) carry() {
	c, lo, hi := &a.chunk, a.lo, a.hi
	for i := lo; i < accChunks-1; i++ {
		h := (c[i] + 1<<31) >> 32
		if h == 0 && i >= hi {
			break
		}
		c[i] -= h << 32
		c[i+1] += h
		hi = max(hi, i+1)
	}
	for lo <= hi && c[lo] == 0 {
		lo++
	}
	for hi >= lo && c[hi] == 0 {
		hi--
	}
	if lo > hi {
		lo, hi = accChunks, -1
	}
	a.adds, a.lo, a.hi = 0, lo, hi
}

// round returns the sum rounded to the nearest float64, ties to even, +0
// when it is zero. It reads the magnitude's three leading chunks, 65 to 96
// significant bits, and a sticky bit for any chunk below them, which
// rounds as the exact sum does.
func (a *floatAcc) round() float64 {
	a.carry()
	switch {
	case a.lo > a.hi:
		return 0
	case a.hi == accChunks-1:
		// At least 2^(32·67-1) units of 2^-1074, past MaxFloat64.
		return math.Copysign(math.Inf(1), float64(a.chunk[a.hi]))
	}
	// d: the magnitude's chunks from lo on, each in [0, 2^32).
	var d [accChunks]int64
	n := a.hi - a.lo + 1
	neg := a.chunk[a.hi] < 0
	for i, c := range a.chunk[a.lo : a.hi+1] {
		if neg {
			c = -c
		}
		d[i] = c
	}
	for i := 0; i < n-1; i++ {
		h := d[i] >> 32
		d[i] -= h << 32
		d[i+1] += h
	}
	h := n - 1
	for d[h] == 0 {
		h--
	}
	f := roundChunks(d[:h+1], a.lo)
	if neg {
		return -f
	}
	return f
}

// roundChunks rounds Σ d[i]·2^(32(lo+i)) units of 2^-1074, whose chunks
// are in [0, 2^32) and whose last is non-zero, as round does.
func roundChunks(d []int64, lo int) float64 {
	h := len(d) - 1
	digit := func(i int) uint64 {
		if i < 0 {
			return 0
		}
		return uint64(d[i])
	}
	// The sum is (top·2^64 + mid) · 2^(32(lo+h-2)) units, plus what lies
	// below.
	top, mid := digit(h), digit(h-1)<<32|digit(h-2)
	sticky := false
	for i := 0; i < h-2; i++ {
		sticky = sticky || d[i] != 0
	}
	// m: the 64 leading bits, the first of them set; the sum is about
	// m · 2^e units.
	lz := uint(bits.LeadingZeros32(uint32(top)))
	m := top<<(32+lz) | mid>>(32-lz)
	sticky = sticky || mid<<(32+lz) != 0
	e := 32*(lo+h-2) + 32 - int(lz)
	// Round m to 53 bits.
	r := m & (1<<11 - 1)
	m >>= 11
	e += 11
	if r > 1<<10 || r == 1<<10 && (sticky || m&1 != 0) {
		if m++; m == 1<<53 {
			m >>= 1
			e++
		}
	}
	// m is exact below 2^53 units, where the result may be subnormal, and
	// a normal float64 or past the range above, so Ldexp rounds nothing.
	return math.Ldexp(float64(m), e-accScale)
}

// bigInt sets z to the sum in units of 2^-1074.
func (a *floatAcc) bigInt(z *big.Int) {
	z.SetInt64(0)
	var c big.Int
	for i := a.hi; i >= a.lo; i-- {
		z.Lsh(z, 32).Add(z, c.SetInt64(a.chunk[i]))
	}
	if a.lo <= a.hi {
		z.Lsh(z, uint(32*a.lo))
	}
}

// The partial wire form: the state a producer's pre-aggregation writes
// for each aggregate of a group, one bytes column per aggregate. It is a
// flags byte, then the count (uvarint), then what the flags say is
// present — the int sum (uvarint low word, varint high word), the float
// accumulator's non-zero chunks in the carried form (uvarint n, then n
// chunks as uvarint index, strictly ascending, and varint value; a
// decoder refuses a value past ±2^33), the min and max (row elements) —
// and nothing after.

// partialFlags are the flags a partial state may carry.
const (
	partialInts = 1 << 7 // not a state flag: the int sum is present
	partialMask = hasFloat | sawNaN | sawPosInf | sawNegInf | hasExtremes | partialInts
)

// appendPartial appends st's partial wire form: what need reads of it.
func (st *aggState) appendPartial(dst []byte, need aggNeed) []byte {
	flags := uint8(0)
	if need.sum {
		flags = st.flags & (hasFloat | sawNaN | sawPosInf | sawNegInf)
		if st.ilo != 0 || st.ihi != 0 {
			flags |= partialInts
		}
	}
	if need.mm {
		flags |= st.flags & hasExtremes
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(st.count))
	if flags&partialInts != 0 {
		dst = binary.AppendUvarint(dst, st.ilo)
		dst = binary.AppendVarint(dst, st.ihi)
	}
	if flags&hasFloat != 0 {
		a := st.facc
		a.carry()
		n := 0
		for i := a.lo; i <= a.hi; i++ {
			if a.chunk[i] != 0 {
				n++
			}
		}
		dst = binary.AppendUvarint(dst, uint64(n))
		for i := a.lo; i <= a.hi; i++ {
			if c := a.chunk[i]; c != 0 {
				dst = binary.AppendUvarint(dst, uint64(i))
				dst = binary.AppendVarint(dst, c)
			}
		}
	}
	if flags&hasExtremes != 0 {
		dst = row.AppendValue(row.AppendValue(dst, st.min), st.max)
	}
	return dst
}

var errPartial = errors.New("relop: corrupt partial aggregate state")

// mergePartial decodes one partial state and merges it into st: its
// chunks add straight into st's accumulator, as one term of its carry
// budget (each is within ±2^33). A state that does not decode, or
// decodes with bytes left over, is an error, and leaves st partly merged:
// the task that read it fails.
func (st *aggState) mergePartial(buf []byte) error {
	if len(buf) == 0 || buf[0]&^partialMask != 0 {
		return errPartial
	}
	flags := buf[0]
	pos := 1
	uv := func() (uint64, bool) {
		x, n := binary.Uvarint(buf[pos:])
		pos += max(n, 0)
		return x, n > 0
	}
	count, ok := uv()
	if !ok || count > math.MaxInt64 {
		return errPartial
	}
	st.count += int64(count)
	if flags&partialInts != 0 {
		lo, ok := uv()
		hi, n := binary.Varint(buf[pos:])
		if !ok || n <= 0 {
			return errPartial
		}
		pos += n
		var c uint64
		st.ilo, c = bits.Add64(st.ilo, lo, 0)
		st.ihi += hi + int64(c)
	}
	st.flags |= flags & (sawNaN | sawPosInf | sawNegInf)
	if flags&hasFloat != 0 {
		n, ok := uv()
		if !ok || n > accChunks {
			return errPartial
		}
		acc := st.acc()
		next := uint64(0)
		for ; n > 0; n-- {
			i, ok := uv()
			if !ok || i < next || i >= accChunks {
				return errPartial
			}
			c, w := binary.Varint(buf[pos:])
			if w <= 0 || c > 1<<33 || c < -1<<33 {
				return errPartial
			}
			acc.chunk[i] += c
			acc.lo, acc.hi = min(acc.lo, int(i)), max(acc.hi, int(i))
			pos, next = pos+w, i+1
		}
		acc.added()
	}
	if flags&hasExtremes != 0 {
		mn, n, err := row.DecodeValue(buf[pos:])
		if err != nil || mn.IsNull() {
			return errPartial
		}
		pos += n
		mx, n, err := row.DecodeValue(buf[pos:])
		if err != nil || mx.IsNull() {
			return errPartial
		}
		pos += n
		st.observeExtremes(mn, mx)
	}
	if pos != len(buf) {
		return errPartial
	}
	return nil
}

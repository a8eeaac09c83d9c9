package relop

import (
	"bytes"

	"tez/internal/col"
)

// Expression kernels (DESIGN.md §13). evalVec computes an Expr over every
// physical row of a batch at once — type-specialized loops for the common
// int64/bytes comparators and int/float arithmetic, with boxed per-row
// fallbacks (via col.CompareAt / arithValues) for kind-mixed columns. The
// dynamic-typing rules are those of the row-at-a-time oracle
// (oracle_test.go), which the identity tests hold every kernel to.
//
// Null discipline: fast kernels may leave garbage payload bits at null
// positions; every consumer (truthyWords, encoders, CompareAt) checks
// the null overlay first, the way the oracle checks IsNull before
// touching a value.

func evalVec(e *Expr, b *col.Batch) col.Vector {
	n := b.Len()
	switch e.Kind {
	case "col":
		if e.Col < 0 || e.Col >= b.Width() {
			return col.ConstNull(n)
		}
		return *b.Col(e.Col) // header copy; storage shared, never mutated
	case "lit":
		return col.Const(e.Lit, n)
	case "cmp":
		a := evalVec(e.Args[0], b)
		c := evalVec(e.Args[1], b)
		return cmpVec(e.Op, &a, &c, n)
	case "and", "or":
		nw := (n + 63) / 64
		acc := make([]uint64, nw)
		if e.Kind == "and" {
			for w := range acc {
				acc[w] = ^uint64(0)
			}
		}
		var tmp []uint64
		for _, arg := range e.Args {
			v := evalVec(arg, b)
			tmp = truthyWords(tmp, &v, n)
			if e.Kind == "and" {
				for w := range acc {
					acc[w] &= tmp[w]
				}
			} else {
				for w := range acc {
					acc[w] |= tmp[w]
				}
			}
		}
		out := col.NewBool(n)
		copy(out.Bits, acc)
		return out
	case "not":
		v := evalVec(e.Args[0], b)
		tmp := truthyWords(nil, &v, n)
		out := col.NewBool(n)
		for w := range out.Bits {
			out.Bits[w] = ^tmp[w]
		}
		return out
	case "arith":
		a := evalVec(e.Args[0], b)
		c := evalVec(e.Args[1], b)
		return arithVec(e.Op, &a, &c, n)
	}
	return col.ConstNull(n)
}

// truthyWords renders a vector as one truthiness bit per row (null, 0,
// 0.0 and "" are false), reusing dst.
func truthyWords(dst []uint64, v *col.Vector, n int) []uint64 {
	nw := (n + 63) / 64
	dst = dst[:0]
	for w := 0; w < nw; w++ {
		dst = append(dst, 0)
	}
	if v.IsConst() {
		if v.Truthy(0) {
			for w := range dst {
				dst[w] = ^uint64(0)
			}
		}
		return dst
	}
	switch v.Kind() {
	case col.Bool:
		for w := range dst {
			if w < len(v.Bits) {
				dst[w] = v.Bits[w] &^ v.NullWord(w)
			}
		}
	case col.Int64:
		for i, x := range v.Ints {
			if x != 0 {
				dst[i>>6] |= 1 << (uint(i) & 63)
			}
		}
		for w := range dst {
			dst[w] &^= v.NullWord(w)
		}
	default:
		for i := 0; i < n; i++ {
			if v.Truthy(i) {
				dst[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	return dst
}

// --- comparison -------------------------------------------------------

func cmpTrue(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// flipOp mirrors an operator across swapped operands.
func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

func constNonNull(v *col.Vector, k col.Kind) bool {
	return v.IsConst() && v.Kind() == k && !v.IsNull(0)
}

func denseKind(v *col.Vector, k col.Kind) bool {
	return v.Kind() == k && !v.IsConst()
}

func cmpVec(op string, a, c *col.Vector, n int) col.Vector {
	out := col.NewBool(n)
	switch {
	case denseKind(a, col.Int64) && constNonNull(c, col.Int64):
		cmpIntsConst(&out, a.Ints, c.Int(0), op)
		copyNullWords(&out, a, n)
	case denseKind(c, col.Int64) && constNonNull(a, col.Int64):
		cmpIntsConst(&out, c.Ints, a.Int(0), flipOp(op))
		copyNullWords(&out, c, n)
	case denseKind(a, col.Int64) && denseKind(c, col.Int64):
		cmpIntsInts(&out, a.Ints, c.Ints, op)
		unionNullWords(&out, a, c, n)
	case denseKind(a, col.Bytes) && constNonNull(c, col.Bytes):
		cmpBytesConst(&out, a, c.BytesAt(0), op)
		copyNullWords(&out, a, n)
	case denseKind(c, col.Bytes) && constNonNull(a, col.Bytes):
		cmpBytesConst(&out, c, a.BytesAt(0), flipOp(op))
		copyNullWords(&out, c, n)
	case denseKind(a, col.Float64) && constNonNull(c, col.Float64):
		cmpFloatsConst(&out, a.Floats, c.Float(0), op)
		copyNullWords(&out, a, n)
	case denseKind(c, col.Float64) && constNonNull(a, col.Float64):
		cmpFloatsConst(&out, c.Floats, a.Float(0), flipOp(op))
		copyNullWords(&out, c, n)
	default:
		for i := 0; i < n; i++ {
			if a.IsNull(i) || c.IsNull(i) {
				out.SetNullAt(i)
				continue
			}
			if cmpTrue(op, col.CompareAt(a, i, c, i)) {
				out.SetTrue(i)
			}
		}
	}
	return out
}

func cmpIntsConst(out *col.Vector, xs []int64, lit int64, op string) {
	switch op {
	case "=":
		for i, x := range xs {
			if x == lit {
				out.SetTrue(i)
			}
		}
	case "!=":
		for i, x := range xs {
			if x != lit {
				out.SetTrue(i)
			}
		}
	case "<":
		for i, x := range xs {
			if x < lit {
				out.SetTrue(i)
			}
		}
	case "<=":
		for i, x := range xs {
			if x <= lit {
				out.SetTrue(i)
			}
		}
	case ">":
		for i, x := range xs {
			if x > lit {
				out.SetTrue(i)
			}
		}
	case ">=":
		for i, x := range xs {
			if x >= lit {
				out.SetTrue(i)
			}
		}
	}
}

func cmpIntsInts(out *col.Vector, xs, ys []int64, op string) {
	switch op {
	case "=":
		for i, x := range xs {
			if x == ys[i] {
				out.SetTrue(i)
			}
		}
	case "!=":
		for i, x := range xs {
			if x != ys[i] {
				out.SetTrue(i)
			}
		}
	case "<":
		for i, x := range xs {
			if x < ys[i] {
				out.SetTrue(i)
			}
		}
	case "<=":
		for i, x := range xs {
			if x <= ys[i] {
				out.SetTrue(i)
			}
		}
	case ">":
		for i, x := range xs {
			if x > ys[i] {
				out.SetTrue(i)
			}
		}
	case ">=":
		for i, x := range xs {
			if x >= ys[i] {
				out.SetTrue(i)
			}
		}
	}
}

// cmpFloatsConst phrases every operator in terms of strict < and >, the
// way row.Compare does: NaN is unordered, so Compare returns 0 and the
// row oracle treats NaN "=", "<=", ">=" anything as true. Native ==, !=
// and <= would diverge on NaN operands.
func cmpFloatsConst(out *col.Vector, xs []float64, lit float64, op string) {
	switch op {
	case "=":
		for i, x := range xs {
			if !(x < lit) && !(x > lit) {
				out.SetTrue(i)
			}
		}
	case "!=":
		for i, x := range xs {
			if x < lit || x > lit {
				out.SetTrue(i)
			}
		}
	case "<":
		for i, x := range xs {
			if x < lit {
				out.SetTrue(i)
			}
		}
	case "<=":
		for i, x := range xs {
			if !(x > lit) {
				out.SetTrue(i)
			}
		}
	case ">":
		for i, x := range xs {
			if x > lit {
				out.SetTrue(i)
			}
		}
	case ">=":
		for i, x := range xs {
			if !(x < lit) {
				out.SetTrue(i)
			}
		}
	}
}

func cmpBytesConst(out *col.Vector, a *col.Vector, lit []byte, op string) {
	for i := 0; i < a.Len(); i++ {
		if cmpTrue(op, bytes.Compare(a.BytesAt(i), lit)) {
			out.SetTrue(i)
		}
	}
}

func copyNullWords(out *col.Vector, a *col.Vector, n int) {
	for w := 0; w < (n+63)/64; w++ {
		if nw := a.NullWord(w); nw != 0 {
			out.SetNullWord(w, nw)
		}
	}
}

func unionNullWords(out *col.Vector, a, c *col.Vector, n int) {
	for w := 0; w < (n+63)/64; w++ {
		if nw := a.NullWord(w) | c.NullWord(w); nw != 0 {
			out.SetNullWord(w, nw)
		}
	}
}

// --- arithmetic -------------------------------------------------------

func numericIntKind(v *col.Vector) bool {
	return v.Kind() == col.Int64 || v.Kind() == col.Bool
}

func plainKind(v *col.Vector) bool {
	switch v.Kind() {
	case col.Int64, col.Float64, col.Bytes, col.Bool:
		return true
	}
	return false
}

func arithVec(op string, a, c *col.Vector, n int) col.Vector {
	switch op {
	case "+", "-", "*", "/":
	default:
		return col.ConstNull(n) // an unknown operator yields null
	}
	if a.Kind() == col.Unset || c.Kind() == col.Unset {
		return col.ConstNull(n) // an all-null operand nulls every row
	}
	if !plainKind(a) || !plainKind(c) {
		// Kind-mixed column: box per row through the shared scalar kernel.
		var out col.Vector
		for i := 0; i < n; i++ {
			out.AppendValue(arithValues(op, a.Value(i), c.Value(i)))
		}
		return out
	}
	// Per-vector kinds are uniform, so the row oracle's per-row "both
	// ints and not division" test is uniform across the batch.
	if numericIntKind(a) && numericIntKind(c) && op != "/" {
		return arithInts(op, a, c, n)
	}
	return arithFloats(op, a, c, n)
}

func arithInts(op string, a, c *col.Vector, n int) col.Vector {
	out := col.NewInts(n)
	switch {
	case denseKind(a, col.Int64) && constNonNull(c, col.Int64):
		arithIntsConst(out.Ints, a.Ints, c.Int(0), op, false)
		copyNullWords(&out, a, n)
	case denseKind(c, col.Int64) && constNonNull(a, col.Int64):
		arithIntsConst(out.Ints, c.Ints, a.Int(0), op, true)
		copyNullWords(&out, c, n)
	case denseKind(a, col.Int64) && denseKind(c, col.Int64):
		arithIntsInts(out.Ints, a.Ints, c.Ints, op)
		unionNullWords(&out, a, c, n)
	default:
		for i := 0; i < n; i++ {
			if a.IsNull(i) || c.IsNull(i) {
				out.SetNullAt(i)
				continue
			}
			out.Ints[i] = intOp(op, a.Int(i), c.Int(i))
		}
	}
	return out
}

func intOp(op string, x, y int64) int64 {
	switch op {
	case "+":
		return x + y
	case "-":
		return x - y
	case "*":
		return x * y
	}
	return 0
}

// arithIntsConst computes xs ⊕ lit (or lit ⊕ xs when rev).
func arithIntsConst(dst, xs []int64, lit int64, op string, rev bool) {
	switch op {
	case "+":
		for i, x := range xs {
			dst[i] = x + lit
		}
	case "-":
		if rev {
			for i, x := range xs {
				dst[i] = lit - x
			}
		} else {
			for i, x := range xs {
				dst[i] = x - lit
			}
		}
	case "*":
		for i, x := range xs {
			dst[i] = x * lit
		}
	}
}

func arithIntsInts(dst, xs, ys []int64, op string) {
	switch op {
	case "+":
		for i, x := range xs {
			dst[i] = x + ys[i]
		}
	case "-":
		for i, x := range xs {
			dst[i] = x - ys[i]
		}
	case "*":
		for i, x := range xs {
			dst[i] = x * ys[i]
		}
	}
}

func arithFloats(op string, a, c *col.Vector, n int) col.Vector {
	out := col.NewFloats(n)
	if op == "/" {
		for i := 0; i < n; i++ {
			if a.IsNull(i) || c.IsNull(i) {
				out.SetNullAt(i)
				continue
			}
			_, fa, _, _ := a.NumAt(i)
			_, fb, _, _ := c.NumAt(i)
			if fb == 0 {
				out.SetNullAt(i)
				continue
			}
			out.Floats[i] = fa / fb
		}
		return out
	}
	switch {
	case denseKind(a, col.Float64) && constNonNull(c, col.Float64):
		arithFloatsConst(out.Floats, a.Floats, c.Float(0), op, false)
		copyNullWords(&out, a, n)
	case denseKind(c, col.Float64) && constNonNull(a, col.Float64):
		arithFloatsConst(out.Floats, c.Floats, a.Float(0), op, true)
		copyNullWords(&out, c, n)
	case denseKind(a, col.Float64) && denseKind(c, col.Float64):
		arithFloatsFloats(out.Floats, a.Floats, c.Floats, op)
		unionNullWords(&out, a, c, n)
	default:
		for i := 0; i < n; i++ {
			if a.IsNull(i) || c.IsNull(i) {
				out.SetNullAt(i)
				continue
			}
			_, fa, _, _ := a.NumAt(i)
			_, fb, _, _ := c.NumAt(i)
			out.Floats[i] = floatOp(op, fa, fb)
		}
	}
	return out
}

func floatOp(op string, x, y float64) float64 {
	switch op {
	case "+":
		return x + y
	case "-":
		return x - y
	case "*":
		return x * y
	}
	return 0
}

func arithFloatsConst(dst, xs []float64, lit float64, op string, rev bool) {
	switch op {
	case "+":
		for i, x := range xs {
			dst[i] = x + lit
		}
	case "-":
		if rev {
			for i, x := range xs {
				dst[i] = lit - x
			}
		} else {
			for i, x := range xs {
				dst[i] = x - lit
			}
		}
	case "*":
		for i, x := range xs {
			dst[i] = x * lit
		}
	}
}

func arithFloatsFloats(dst, xs, ys []float64, op string) {
	switch op {
	case "+":
		for i, x := range xs {
			dst[i] = x + ys[i]
		}
	case "-":
		for i, x := range xs {
			dst[i] = x - ys[i]
		}
	case "*":
		for i, x := range xs {
			dst[i] = x * ys[i]
		}
	}
}

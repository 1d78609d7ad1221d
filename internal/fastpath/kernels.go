package fastpath

// Row kernels. Every per-vertex sweep reduces one CSR row — a vertex's
// sorted neighbor list — to a count, a maximum, a sum or an any-test. Each
// kernel is a small leaf loop with no data-dependent branches (anyBit's
// early exit aside). They are kept out of line on purpose: inlined into
// the phase loops, which hold a dozen live slices, the compiler spilled
// the row index and the accumulator to the stack on every entry; as leaf
// calls the whole loop runs in registers.

// countBits returns how many row entries have their bit set in words.
//
//go:noinline
func countBits(row []int32, words []uint64) int32 {
	var c int32
	for _, u := range row {
		c += int32(words[uint32(u)>>6] >> (uint32(u) & 63) & 1)
	}
	return c
}

// maxOver returns the maximum of init and vals over row. It is branch-free:
// d &^ (d >> 31) is max(d, 0), so m += it raises m to vals[u] when that is
// larger. Exact for every caller, whose values lie in [0, ∆+1], so the
// difference cannot overflow.
//
//go:noinline
func maxOver(row []int32, vals []int32, init int32) int32 {
	m := init
	for _, u := range row {
		d := vals[u] - m
		m += d &^ (d >> 31)
	}
	return m
}

// maxDegOver is maxOver over the vertex degrees, read off the CSR offsets.
//
//go:noinline
func maxDegOver(row []int32, off []int32, init int32) int32 {
	m := init
	for _, u := range row {
		d := off[u+1] - off[u] - m
		m += d &^ (d >> 31)
	}
	return m
}

// sumOver returns init plus vals over row, added one at a time in row
// order into a single accumulator. Callers pass self's value as init, which
// reproduces the references' self-then-sorted-neighbors summation order
// exactly, and with it every float bit.
//
//go:noinline
func sumOver(row []int32, vals []float64, init float64) float64 {
	sum := init
	for _, u := range row {
		sum += vals[u]
	}
	return sum
}

// anyBit reports whether some row entry has its bit set in words.
//
//go:noinline
func anyBit(row []int32, words []uint64) bool {
	for _, u := range row {
		if words[uint32(u)>>6]>>(uint32(u)&63)&1 != 0 {
			return true
		}
	}
	return false
}

package wars

import (
	"math"
	"slices"
)

// The engine's sample arrays are sorted in place by an MSD radix sort
// ("American flag" sort) on an order-preserving uint64 key of each float64,
// one 8-bit digit per level. Its scratch is two 256-entry tables per level,
// on the stack: nothing it allocates grows with the trial count.

// radixCutoff is the bucket length at or below which a bucket is finished by
// slices.Sort rather than split on its next digit.
const radixCutoff = 64

// floatKey maps a float64 to a uint64 whose unsigned order is the float
// order of sort.Float64s: NaNs first, then -Inf < … < -0 < +0 < … < +Inf.
// Flipping every bit of a negative value and only the sign bit of a
// non-negative one makes the IEEE 754 bit patterns compare as integers.
func floatKey(x float64) uint64 {
	if x != x {
		return 0
	}
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// sortFloat64s sorts xs ascending in place, in the order of sort.Float64s.
func sortFloat64s(xs []float64) {
	radixSort(xs, 56)
}

// radixSort sorts xs, all of whose keys agree above bit shift+8, by the
// digit at shift and then, bucket by bucket, by the digits below it.
func radixSort(xs []float64, shift uint) {
	for len(xs) > radixCutoff {
		var head, tail [256]int
		for _, x := range xs {
			tail[byte(floatKey(x)>>shift)]++
		}
		// One bucket holding everything: this digit sorts nothing.
		if tail[byte(floatKey(xs[0])>>shift)] == len(xs) {
			if shift == 0 {
				return
			}
			shift -= 8
			continue
		}
		sum := 0
		for d, c := range tail {
			head[d] = sum
			sum += c
			tail[d] = sum
		}
		// Cycle each misplaced element into the next free slot of its
		// bucket; head[d] advances until bucket d is full.
		for d := range head {
			for head[d] < tail[d] {
				x := xs[head[d]]
				for b := byte(floatKey(x) >> shift); int(b) != d; b = byte(floatKey(x) >> shift) {
					xs[head[b]], x = x, xs[head[b]]
					head[b]++
				}
				xs[head[d]] = x
				head[d]++
			}
		}
		if shift == 0 {
			return
		}
		start := 0
		for _, end := range tail {
			if end-start > 1 {
				radixSort(xs[start:end], shift-8)
			}
			start = end
		}
		return
	}
	slices.Sort(xs)
}

package workloads

// The int32 sort kernel every sorting workload runs on the host. No
// charge reads it: the simulated cost of a sort is a function of element
// counts alone, so the host algorithm is free to be whatever sorts
// fastest, and a faster one buys regeneration CPU without moving a
// modelled number.

// SortInt32 sorts a in ascending order, using scratch (len(scratch) >=
// len(a)) as the other buffer of four 8-bit LSD radix passes. Keys have
// their sign bit flipped so that unsigned digit order is signed order.
// Every pass moves the whole array from one buffer to the other; after
// the fourth, an even number, the result is back in a. It does not
// allocate.
func SortInt32(a, scratch []int32) {
	n := len(a)
	if n < 2 {
		return
	}
	scratch = scratch[:n]
	// One histogram per digit, all filled in a single read of a.
	var counts [4][256]int
	for _, v := range a {
		u := uint32(v) ^ 1<<31
		counts[0][u&0xff]++
		counts[1][u>>8&0xff]++
		counts[2][u>>16&0xff]++
		counts[3][u>>24]++
	}
	src, dst := a, scratch
	for d := range counts {
		c := &counts[d]
		sum := 0
		for i, k := range c {
			c[i] = sum
			sum += k
		}
		shift := uint(8 * d)
		for _, v := range src {
			b := (uint32(v) ^ 1<<31) >> shift & 0xff
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
}

// MergeInt32 merges the sorted slices a and b into dst (len(dst) ==
// len(a)+len(b)); on equal keys a's come first. On random keys the
// comparison is a coin flip, so the loop advances its two cursors by
// arithmetic on the outcome instead of branching on it: the element
// select compiles to a conditional move and nothing is left for the
// branch predictor to miss.
func MergeInt32(dst, a, b []int32) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		v, fromA := y, 0
		if x <= y {
			v, fromA = x, 1
		}
		dst[k] = v
		k++
		i += fromA
		j += 1 - fromA
	}
	copy(dst[k:], a[i:])
	copy(dst[k+len(a)-i:], b[j:])
}

package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the same rule
// as Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so spreads printed here match a reader's own check. It needs
// at least two values; a single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// percentileNS returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// durations in nanoseconds; 0 for an empty slice.
func percentileNS(ds []int64, p float64) int64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]int64(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

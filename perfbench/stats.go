package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile:
// fewer than that and the "tail" is a handful of outliers, not a tail.
const minTail = 10

// sample is a set of measurements (latencies in ms, say) taken in one
// run.
type sample []float64

// sorted returns a sorted copy.
func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) and
// whether it may be reported: the number of samples ranked beyond it
// must be at least minTail. The median (p = 0.5) is always reportable
// once there is a sample.
func (s sample) percentile(p float64) (float64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	c := s.sorted()
	rank := int(math.Ceil(p * float64(len(c))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(c) {
		rank = len(c)
	}
	ok := p <= 0.5 || len(c)-rank >= minTail
	return c[rank-1], ok
}

// minSamplesFor returns the smallest sample count at which the
// p-quantile has minTail samples beyond it.
func minSamplesFor(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p*float64(n))) >= minTail {
			return n
		}
	}
}

// median of a small set of values (the setups of one run, say),
// averaging the middle pair of an even count.
func median(xs []float64) float64 {
	c := sample(xs).sorted()
	if len(c) == 0 {
		return 0
	}
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// quartiles returns (Q1, median, Q3) exactly as Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), so the steadiness command reports the spread
// the same way it is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	c := sample(xs).sorted()
	n := len(c)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return c[0], c[0], c[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (c[j-1]*float64(4-delta) + c[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

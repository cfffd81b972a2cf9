package main

import (
	"math"
	"testing"
)

func seq(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[i] = float64(n - i) // unsorted on purpose
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{100, 0.9, true, 90},
		{99, 0.9, false, 90},
		{1000, 0.99, true, 990},
		{999, 0.99, false, 990},
		{3, 0.5, true, 2},
	} {
		got, ok := seq(c.n).percentile(c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("n=%d p=%g: got (%g, %v), want (%g, %v)", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := (sample{}).percentile(0.5); ok {
		t.Error("empty sample reported a median")
	}
	if got := minSamplesFor(0.9); got != 100 {
		t.Errorf("minSamplesFor(0.9) = %d, want 100", got)
	}
	if got := minSamplesFor(0.99); got != 1000 {
		t.Errorf("minSamplesFor(0.99) = %d, want 1000", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	for _, c := range [][2]float64{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(c[0]-c[1]) > 1e-12 {
			t.Errorf("quartiles of 1..10 = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
		}
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %g %g %g, want 1 2 4", q1, q2, q3)
	}
}

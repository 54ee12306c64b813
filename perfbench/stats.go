package main

import (
	"math"
	"sort"
)

// summary is one statistic of a sample together with the sample it was
// taken over: no timing is reported without its count.
type summary struct {
	// Value is the statistic.
	Value float64
	// P is the percentile Value sits at (50 for the median).
	P float64
	// N is the number of samples.
	N int
	// Beyond counts the samples ranked above Value.
	Beyond int
}

// exact wraps a single measured or counted value.
func exact(v float64) summary { return summary{Value: v, P: 50, N: 1} }

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// scaled returns xs multiplied by k (a unit conversion).
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// median is the sample median, the mean of the middle two for an even
// count. An empty sample yields a zero summary with N = 0.
func median(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{P: 50}
	}
	s := sorted(xs)
	v := s[n/2]
	if n%2 == 0 {
		v = (s[n/2-1] + s[n/2]) / 2
	}
	return summary{Value: v, P: 50, N: n, Beyond: n / 2}
}

// percentile is the nearest-rank p-th percentile: the smallest sample
// with at least p% of the sample at or below it.
func percentile(xs []float64, p float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{P: p}
	}
	// p·n before the division keeps whole-percent ranks exact (90·100/100
	// is 90, where 0.9·100 rounds up to 90.00000000000001).
	k := int(math.Ceil(p * float64(n) / 100))
	k = max(1, min(k, n))
	return summary{Value: sorted(xs)[k-1], P: p, N: n, Beyond: n - k}
}

// tail is the highest whole percentile, from the median up, with at
// least minBeyond samples ranked above it — the highest percentile the
// sample supports. ok is false when not even the median has that many.
func tail(xs []float64, minBeyond int) (s summary, ok bool) {
	for p := 99; p >= 50; p-- {
		if s = percentile(xs, float64(p)); s.N > 0 && s.Beyond >= minBeyond {
			return s, true
		}
	}
	return summary{}, false
}

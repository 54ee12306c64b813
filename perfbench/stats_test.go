package main

import "testing"

func TestMedianReportsSampleCount(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		s := median(tc.xs)
		if s.Value != tc.want || s.P != 50 || s.N != len(tc.xs) {
			t.Errorf("median(%v) = %+v, want value %g over %d samples", tc.xs, s, tc.want, len(tc.xs))
		}
	}
	if s := median(nil); s.Value != 0 || s.N != 0 {
		t.Errorf("median(nil) = %+v, want zero over 0 samples", s)
	}
}

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 down to 1: the input order must not matter
	}
	s := percentile(xs, 90)
	if s.Value != 90 || s.N != 100 || s.Beyond != 10 {
		t.Errorf("p90 of 1..100 = %+v, want 90 over 100 samples with 10 beyond", s)
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{100, 90, true},
		{150, 93, true},
		{20, 50, true},
		{19, 0, false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		s, ok := tail(xs, 10)
		if ok != tc.ok {
			t.Errorf("n=%d: ok = %t, want %t", tc.n, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if s.P != tc.wantP || s.N != tc.n || s.Beyond < 10 {
			t.Errorf("n=%d: tail = %+v, want p%g over %d samples with at least 10 beyond", tc.n, s, tc.wantP, tc.n)
		}
		if next := percentile(xs, s.P+1); next.Beyond >= 10 {
			t.Errorf("n=%d: p%g also has %d samples beyond, so p%g is not the highest", tc.n, next.P, next.Beyond, s.P)
		}
	}
}

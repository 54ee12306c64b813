// Package solve provides the one-dimensional root finding used to invert
// the paper's consistency curves: Figure 1 plots the maximum tolerable
// adversarial fraction νmax against c, which requires solving equations
// such as c = 2(1−ν)/ln((1−ν)/ν) for ν.
//
// Bisection is the workhorse (all curves are monotone on their domains);
// Brent's method is provided as the faster alternative benchmarked in
// BenchmarkNuMaxSolvers.
package solve

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned when the supplied interval does not bracket a
// sign change.
var ErrNoBracket = errors.New("solve: interval does not bracket a root")

// ErrMaxIterations is returned when the iteration budget is exhausted
// before reaching the requested tolerance.
var ErrMaxIterations = errors.New("solve: maximum iterations exceeded")

// Options configures a root-finding run. The zero value requests defaults.
type Options struct {
	// TolX is the absolute tolerance on the root location. Defaults to
	// 1e-12.
	TolX float64
	// MaxIter bounds the number of iterations. Defaults to 200.
	MaxIter int
}

func (o Options) withDefaults() Options {
	if o.TolX <= 0 {
		o.TolX = 1e-12
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	return o
}

// Bisect finds a root of f in [a, b] by bisection. f(a) and f(b) must have
// opposite signs (an exact zero at either endpoint is accepted).
func Bisect(f func(float64) float64, a, b float64, opt Options) (float64, error) {
	opt = opt.withDefaults()
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.IsNaN(fa) || math.IsNaN(fb) {
		return 0, fmt.Errorf("solve: f is NaN at an endpoint (f(%g)=%g, f(%g)=%g)", a, fa, b, fb)
	}
	if (fa > 0) == (fb > 0) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	for i := 0; i < opt.MaxIter; i++ {
		m := a + (b-a)/2
		if b-a < opt.TolX || m == a || m == b {
			return m, nil
		}
		fm := f(m)
		if fm == 0 {
			return m, nil
		}
		if (fm > 0) == (fa > 0) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return a + (b-a)/2, ErrMaxIterations
}

// Brent finds a root of f in [a, b] using Brent's method (inverse quadratic
// interpolation with bisection fallback). f(a) and f(b) must have opposite
// signs.
func Brent(f func(float64) float64, a, b float64, opt Options) (float64, error) {
	opt = opt.withDefaults()
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.IsNaN(fa) || math.IsNaN(fb) {
		return 0, fmt.Errorf("solve: f is NaN at an endpoint (f(%g)=%g, f(%g)=%g)", a, fa, b, fb)
	}
	if (fa > 0) == (fb > 0) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	if math.Abs(fa) < math.Abs(fb) {
		a, b = b, a
		fa, fb = fb, fa
	}
	c, fc := a, fa
	var d float64
	mflag := true
	for i := 0; i < opt.MaxIter; i++ {
		if fb == 0 || math.Abs(b-a) < opt.TolX {
			return b, nil
		}
		var s float64
		if fa != fc && fb != fc {
			// Inverse quadratic interpolation.
			s = a*fb*fc/((fa-fb)*(fa-fc)) +
				b*fa*fc/((fb-fa)*(fb-fc)) +
				c*fa*fb/((fc-fa)*(fc-fb))
		} else {
			// Secant.
			s = b - fb*(b-a)/(fb-fa)
		}
		lo, hi := (3*a+b)/4, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cond := s < lo || s > hi ||
			(mflag && math.Abs(s-b) >= math.Abs(b-c)/2) ||
			(!mflag && math.Abs(s-b) >= math.Abs(c-d)/2) ||
			(mflag && math.Abs(b-c) < opt.TolX) ||
			(!mflag && math.Abs(c-d) < opt.TolX)
		if cond {
			s = a + (b-a)/2
			mflag = true
		} else {
			mflag = false
		}
		fs := f(s)
		d = c
		c, fc = b, fb
		if (fa > 0) != (fs > 0) {
			b, fb = s, fs
		} else {
			a, fa = s, fs
		}
		if math.Abs(fa) < math.Abs(fb) {
			a, b = b, a
			fa, fb = fb, fa
		}
	}
	return b, ErrMaxIterations
}

// LogSpace returns n points logarithmically spaced between lo and hi
// inclusive. It is used to generate the Figure-1 c-axis (0.1 … 100).
func LogSpace(lo, hi float64, n int) []float64 {
	if n <= 0 || lo <= 0 || hi <= lo {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	ll, lh := math.Log(lo), math.Log(hi)
	for i := range out {
		out[i] = math.Exp(ll + (lh-ll)*float64(i)/float64(n-1))
	}
	out[0], out[n-1] = lo, hi
	return out
}

// LinSpace returns n points linearly spaced between lo and hi inclusive.
func LinSpace(lo, hi float64, n int) []float64 {
	if n <= 0 || hi < lo {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	out[n-1] = hi
	return out
}

package solve

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBisectSimpleRoots(t *testing.T) {
	cases := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"linear", func(x float64) float64 { return x - 3 }, 0, 10, 3},
		{"quadratic", func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{"cosine", math.Cos, 0, 3, math.Pi / 2},
		{"exp", func(x float64) float64 { return math.Exp(x) - 5 }, 0, 3, math.Log(5)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := Bisect(c.f, c.a, c.b, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-c.want) > 1e-10 {
				t.Errorf("root = %.15g, want %.15g", got, c.want)
			}
		})
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	f := func(x float64) float64 { return x }
	got, err := Bisect(f, 0, 1, Options{})
	if err != nil || got != 0 {
		t.Errorf("got %g, %v; want 0, nil", got, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	_, err := Bisect(f, -1, 1, Options{})
	if !errors.Is(err, ErrNoBracket) {
		t.Errorf("want ErrNoBracket, got %v", err)
	}
}

func TestBisectNaNEndpoint(t *testing.T) {
	f := func(x float64) float64 { return math.Log(x) }
	if _, err := Bisect(f, -1, 2, Options{}); err == nil {
		t.Error("NaN endpoint accepted")
	}
}

func TestBrentMatchesBisect(t *testing.T) {
	fns := []struct {
		name string
		f    func(float64) float64
		a, b float64
	}{
		{"cubic", func(x float64) float64 { return x*x*x - x - 2 }, 1, 2},
		{"logistic", func(x float64) float64 { return 1/(1+math.Exp(-x)) - 0.7 }, -5, 5},
		{"steep", func(x float64) float64 { return math.Tanh(50*(x-0.3)) + 0.1 }, 0, 1},
	}
	for _, c := range fns {
		t.Run(c.name, func(t *testing.T) {
			rb, err := Bisect(c.f, c.a, c.b, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rr, err := Brent(c.f, c.a, c.b, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(rb-rr) > 1e-9 {
				t.Errorf("bisect %.15g vs brent %.15g", rb, rr)
			}
		})
	}
}

func TestBrentNoBracket(t *testing.T) {
	_, err := Brent(func(x float64) float64 { return 1 + x*x }, -1, 1, Options{})
	if !errors.Is(err, ErrNoBracket) {
		t.Errorf("want ErrNoBracket, got %v", err)
	}
}

func TestQuickBrentFindsLinearRoot(t *testing.T) {
	f := func(rootRaw int16) bool {
		root := float64(rootRaw) / 100
		g := func(x float64) float64 { return x - root }
		got, err := Brent(g, -400, 400, Options{})
		return err == nil && math.Abs(got-root) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogSpace(t *testing.T) {
	pts := LogSpace(0.1, 100, 31)
	if len(pts) != 31 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0] != 0.1 || pts[30] != 100 {
		t.Errorf("endpoints %g, %g", pts[0], pts[30])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] <= pts[i-1] {
			t.Fatalf("not increasing at %d: %g <= %g", i, pts[i], pts[i-1])
		}
	}
	// Ratios should be constant in log space.
	r0 := pts[1] / pts[0]
	for i := 2; i < len(pts); i++ {
		if math.Abs(pts[i]/pts[i-1]-r0) > 1e-9 {
			t.Fatalf("ratio drift at %d", i)
		}
	}
}

func TestLogSpaceDegenerate(t *testing.T) {
	if LogSpace(-1, 10, 5) != nil {
		t.Error("negative lo accepted")
	}
	if LogSpace(1, 1, 5) != nil {
		t.Error("hi == lo accepted")
	}
	if got := LogSpace(2, 10, 1); len(got) != 1 || got[0] != 2 {
		t.Errorf("n=1 gave %v", got)
	}
}

func TestLinSpace(t *testing.T) {
	pts := LinSpace(0, 1, 11)
	if len(pts) != 11 || pts[0] != 0 || pts[10] != 1 {
		t.Fatalf("bad linspace %v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if math.Abs(pts[i]-pts[i-1]-0.1) > 1e-12 {
			t.Fatalf("uneven spacing at %d", i)
		}
	}
}

func TestBisectConvergesToTolerance(t *testing.T) {
	f := func(x float64) float64 { return x - math.Pi }
	got, err := Bisect(f, 0, 10, Options{TolX: 1e-14, MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-math.Pi) > 1e-12 {
		t.Errorf("got %.17g, want π", got)
	}
}

func BenchmarkBisect(b *testing.B) {
	f := func(x float64) float64 { return x*x - 2 }
	for i := 0; i < b.N; i++ {
		_, _ = Bisect(f, 0, 2, Options{})
	}
}

func BenchmarkBrent(b *testing.B) {
	f := func(x float64) float64 { return x*x - 2 }
	for i := 0; i < b.N; i++ {
		_, _ = Brent(f, 0, 2, Options{})
	}
}

package scenario

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"neatbound/internal/network"
	"neatbound/internal/params"
)

func testParams() params.Params {
	return params.Params{N: 40, P: 0.005, Delta: 4, Nu: 0.3}
}

// TestValidateRejects pins the validation surface: the malformed specs
// the wire (job requests, CLI JSON) must reject.
func TestValidateRejects(t *testing.T) {
	bad := map[string]*Spec{
		"delay and partition": {Delay: &DelaySpec{Kind: "iid"}, Partition: &PartitionSpec{}},
		"unknown delay kind":  {Delay: &DelaySpec{Kind: "warp"}},
		"negative bursty":     {Delay: &DelaySpec{Kind: "bursty", RegimeLen: -1}},
		"split frac ≥ 1":      {Partition: &PartitionSpec{SplitFrac: 1}},
		"length > period":     {Partition: &PartitionSpec{Period: 10, Length: 11}},
		"8·length overflows":  {Partition: &PartitionSpec{Length: math.MaxInt/8 + 1}},
		"leave frac ≥ 1":      {Churn: &ChurnSpec{LeaveFrac: 1}},
		"negative leave":      {Churn: &ChurnSpec{LeaveFrac: -0.25}},
		"negative heavy":      {Power: &PowerSpec{Heavy: -3}},
	}
	for name, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate() accepted %+v", name, s)
		}
	}
	var nilSpec *Spec
	if err := nilSpec.Validate(); err != nil {
		t.Errorf("nil spec must validate: %v", err)
	}
}

// TestParseRejectsPartitionOverflow: a partition whose default period
// 8·Length overflows int is refused. Accepted, the first spec compiled
// to Period 8, Length 8 (a partition active every round) and the second
// to Period 0, Length 0 (no partition at all).
func TestParseRejectsPartitionOverflow(t *testing.T) {
	for _, arg := range []string{
		`{"partition":{"length":2305843009213693953}}`,
		`{"partition":{"length":2305843009213693952}}`,
	} {
		if spec, err := Parse(arg); err == nil {
			t.Errorf("Parse(%s) accepted %+v", arg, *spec.Partition)
		}
	}
	// The largest length whose default period fits still parses, and an
	// explicit period makes any length up to it valid.
	for _, arg := range []string{
		`{"partition":{"length":1152921504606846975}}`,
		`{"partition":{"period":2305843009213693953,"length":2305843009213693953}}`,
	} {
		if _, err := Parse(arg); err != nil {
			t.Errorf("Parse(%s): %v", arg, err)
		}
	}
}

// TestCompileDefaults pins the defaulting table of docs/scenarios.md:
// zero fields resolve against the parameters, and the result is a pure
// function of (spec, params).
func TestCompileDefaults(t *testing.T) {
	pr := testParams()
	honest := pr.HonestCount()

	c, err := (&Spec{Delay: &DelaySpec{Kind: "bursty"}}).Compile(pr)
	if err != nil {
		t.Fatal(err)
	}
	bd, ok := c.Policy.(network.BurstyDelay)
	if !ok {
		t.Fatalf("bursty spec compiled to %T", c.Policy)
	}
	if bd.RegimeLen != 50 || bd.Delta != pr.Delta {
		t.Errorf("bursty defaults: got regime %d delta %d, want 50 and %d", bd.RegimeLen, bd.Delta, pr.Delta)
	}

	c, err = (&Spec{Partition: &PartitionSpec{}}).Compile(pr)
	if err != nil {
		t.Fatal(err)
	}
	pd, ok := c.Policy.(network.PartitionDelay)
	if !ok {
		t.Fatalf("partition spec compiled to %T", c.Policy)
	}
	if pd.Length != pr.Delta || pd.Period != 8*pr.Delta || pd.Split != honest/2 {
		t.Errorf("partition defaults: got length %d period %d split %d, want %d, %d, %d",
			pd.Length, pd.Period, pd.Split, pr.Delta, 8*pr.Delta, honest/2)
	}

	c, err = (&Spec{Churn: &ChurnSpec{LeaveFrac: 0.25}}).Compile(pr)
	if err != nil {
		t.Fatal(err)
	}
	if c.Churn == nil || c.Churn.Period != 50 || c.Churn.Leave != honest/4 {
		t.Errorf("churn defaults: got %+v, want period 50 leave %d", c.Churn, honest/4)
	}

	// A zero leave fraction compiles to no plan at all, not an empty one.
	c, err = (&Spec{Churn: &ChurnSpec{LeaveFrac: 0}}).Compile(pr)
	if err != nil {
		t.Fatal(err)
	}
	if c.Churn != nil {
		t.Errorf("zero-leave churn compiled to %+v, want nil", c.Churn)
	}

	// The nil spec and the zero spec both compile to the default model.
	var nilSpec *Spec
	for _, s := range []*Spec{nilSpec, {}} {
		c, err := s.Compile(pr)
		if err != nil {
			t.Fatal(err)
		}
		if c.Policy != nil || c.Churn != nil || c.Weights != nil {
			t.Errorf("spec %+v compiled to non-default %+v", s, c)
		}
	}
}

// TestSkewedWeightsInvariant pins the power-conservation contract: the
// weight vector always sums to the honest count, so the aggregate
// honest mining rate is unchanged by any skew.
func TestSkewedWeightsInvariant(t *testing.T) {
	for honest := 1; honest <= 60; honest++ {
		for _, heavy := range []int{1, 2, 3, 7, honest} {
			w := SkewedWeights(honest, heavy)
			if len(w) != honest {
				t.Fatalf("honest=%d heavy=%d: %d weights", honest, heavy, len(w))
			}
			sum := 0
			for _, wi := range w {
				if wi < 0 {
					t.Fatalf("honest=%d heavy=%d: negative weight in %v", honest, heavy, w)
				}
				sum += wi
			}
			if sum != honest {
				t.Fatalf("honest=%d heavy=%d: weights sum to %d, want %d (%v)", honest, heavy, sum, honest, w)
			}
		}
	}
}

// TestParseRoundTrip pins the CLI argument surface: presets come back
// fresh (mutating one copy must not leak into the next), inline JSON
// round-trips, unknown fields and presets are rejected.
func TestParseRoundTrip(t *testing.T) {
	for _, name := range Names() {
		s, err := Parse(name)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("preset %q parsed with name %q", name, s.Name)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		back, err := Parse(string(b))
		if err != nil {
			t.Fatalf("preset %q after JSON round trip: %v", name, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("preset %q: round trip %s changed the spec: %+v vs %+v", name, b, s, back)
		}
		// ByName hands out fresh copies.
		s.Delay = &DelaySpec{Kind: "iid"}
		s.Churn = nil
		again, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(again, s) && name != "stochastic-delay" {
			t.Errorf("preset %q: mutation leaked into ByName", name)
		}
	}
	if s, err := Parse(""); err != nil || s != nil {
		t.Errorf("empty argument: got (%+v, %v), want (nil, nil)", s, err)
	}
	if _, err := Parse("no-such-preset"); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := Parse(`{"delay":{"kind":"iid"},"bogus":1}`); err == nil {
		t.Error("unknown JSON field accepted")
	}
	if _, err := Parse(`{"delay":{"kind":"warp"}}`); err == nil {
		t.Error("invalid inline spec accepted")
	}
}

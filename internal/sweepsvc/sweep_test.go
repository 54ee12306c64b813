package sweepsvc

import (
	"testing"

	"neatbound/internal/scenario"
	"neatbound/internal/sweep"
)

// TestSweepValidation: every sweep the service cannot run is refused
// before any cell work, and the small grid they are cut from is not.
func TestSweepValidation(t *testing.T) {
	valid := func() Sweep {
		return Sweep{Spec: sweep.Spec{
			Grid:       sweep.Grid{N: 8, Delta: 2, NuValues: []float64{0.1, 0.2, 0.3}, CValues: []float64{0.001, 1, 4}},
			Seed:       7,
			Replicates: 3,
			Semantics:  sweep.Semantics{Rounds: 120, T: 2, Adversary: "private", ForkDepth: 2},
		}}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid sweep refused: %v", err)
	}
	for name, mutate := range map[string]func(*Sweep){
		"no-rounds":          func(s *Sweep) { s.Rounds = 0 },
		"empty-grid":         func(s *Sweep) { s.NuValues = nil },
		"no-replicates":      func(s *Sweep) { s.Replicates = 0 },
		"bad-adversary":      func(s *Sweep) { s.Adversary = "nope" },
		"duplicate-cell":     func(s *Sweep) { s.NuValues = []float64{0.1, 0.1} },
		"negative-t":         func(s *Sweep) { s.T = -1 },
		"negative-retention": func(s *Sweep) { s.CheckerRetention = -1 },
		"too-many-cells":     func(s *Sweep) { s.NuValues = make([]float64, maxJobRuns/3+1) },
		"too-many-runs":      func(s *Sweep) { s.Replicates = maxJobRuns/9 + 1 },
		"overflowing-runs":   func(s *Sweep) { s.Replicates = 1 << 62 },
	} {
		s := valid()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid sweep accepted", name)
		}
	}
}

// TestCellKeysSensitivity: the content address must move when anything
// semantic moves, and stay put for throughput-only knobs.
func TestCellKeysSensitivity(t *testing.T) {
	base := Sweep{Spec: sweep.Spec{
		Grid:       sweep.Grid{N: 10, Delta: 3, NuValues: []float64{0.2}, CValues: []float64{1}},
		Seed:       9,
		Replicates: 2,
		Semantics:  sweep.Semantics{Rounds: 500, T: 4, Adversary: "private", ForkDepth: 4},
	}}
	k0 := CellKeys(base)[0]

	semantic := map[string]func(*Sweep){
		"n":                 func(s *Sweep) { s.N = 11 },
		"delta":             func(s *Sweep) { s.Delta = 4 },
		"rounds":            func(s *Sweep) { s.Rounds = 501 },
		"seed":              func(s *Sweep) { s.Seed = 10 },
		"t":                 func(s *Sweep) { s.T = 5 },
		"replicates":        func(s *Sweep) { s.Replicates = 3 },
		"adversary":         func(s *Sweep) { s.Adversary = "none" },
		"fork-depth":        func(s *Sweep) { s.ForkDepth = 5 },
		"checker-retention": func(s *Sweep) { s.CheckerRetention = 8 },
		"scenario":          func(s *Sweep) { s.Scenario = &scenario.Spec{Power: &scenario.PowerSpec{Heavy: 2}} },
	}
	for name, mutate := range semantic {
		s := base
		mutate(&s)
		if CellKeys(s)[0] == k0 {
			t.Errorf("%s change did not move the content address", name)
		}
	}

	throughput := map[string]func(*Sweep){
		"engine-shards":      func(s *Sweep) { s.EngineShards = 4 },
		"fast-forward":       func(s *Sweep) { s.FastForward = true },
		"compact-every":      func(s *Sweep) { s.CompactEvery = 100 },
		"compact-min-retire": func(s *Sweep) { s.CompactMinRetire = 64 },
	}
	for name, mutate := range throughput {
		s := base
		mutate(&s)
		if CellKeys(s)[0] != k0 {
			t.Errorf("throughput-only knob %s moved the content address", name)
		}
	}

	// SampleEvery keys by its *resolved* value: 0 and the explicit
	// default are the same cell.
	s := base
	s.SampleEvery = base.Rounds / 50
	if s.SampleEvery < 1 {
		s.SampleEvery = 1
	}
	if CellKeys(s)[0] != k0 {
		t.Error("explicit default sample-every moved the content address")
	}
	s.SampleEvery = 7
	if CellKeys(s)[0] == k0 {
		t.Error("non-default sample-every did not move the content address")
	}
}

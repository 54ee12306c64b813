package sweepsvc

import (
	"testing"

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
		"negative-offset":    func(s *Sweep) { s.CellOffset = -1 },
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

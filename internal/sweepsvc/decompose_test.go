package sweepsvc

import (
	"testing"

	"neatbound/internal/distsweep"
	"neatbound/internal/scenario"
	"neatbound/internal/sweep"
)

// TestDecomposeCoversExactly enumerates every subset of a 3×4 grid and
// checks the rectangle cover is exact and disjoint — every claimed cell
// in exactly one rectangle, no unclaimed cell in any.
func TestDecomposeCoversExactly(t *testing.T) {
	const nNu, nC = 3, 4
	n := nNu * nC
	for mask := 0; mask < 1<<n; mask++ {
		var idxs []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				idxs = append(idxs, i)
			}
		}
		cover := make([]int, n)
		for _, r := range decompose(idxs, nNu, nC) {
			if r.nuLo < 0 || r.nuHi > nNu || r.cLo < 0 || r.cHi > nC ||
				r.nuLo >= r.nuHi || r.cLo >= r.cHi {
				t.Fatalf("mask %b: degenerate rect %+v", mask, r)
			}
			for i := r.nuLo; i < r.nuHi; i++ {
				for jc := r.cLo; jc < r.cHi; jc++ {
					cover[i*nC+jc]++
				}
			}
		}
		want := make([]int, n)
		for _, idx := range idxs {
			want[idx] = 1
		}
		for i := range cover {
			if cover[i] != want[i] {
				t.Fatalf("mask %b: cell %d covered %d times, want %d", mask, i, cover[i], want[i])
			}
		}
	}
}

// TestSubSweepKeysMatchParent pins the seed-frame invariant the whole
// cache design rests on: a rectangle cut from the parent sweep derives,
// via its CellOffset, exactly the parent's content addresses for the
// cells it covers. If this breaks, a cache hit serves a cell computed
// under different seeds.
func TestSubSweepKeysMatchParent(t *testing.T) {
	parent := distsweep.Sweep{Spec: sweep.Spec{
		Grid:       sweep.Grid{N: 10, Delta: 3, NuValues: []float64{0.2, 0.3, 0.45}, CValues: []float64{0.5, 1, 2, 5}},
		Seed:       9,
		Replicates: 2,
		Semantics:  sweep.Semantics{Rounds: 500, T: 4, Adversary: "private", ForkDepth: 4},
	}}
	pk := CellKeys(parent)
	nC := len(parent.CValues)
	for nuLo := 0; nuLo < len(parent.NuValues); nuLo++ {
		for nuHi := nuLo + 1; nuHi <= len(parent.NuValues); nuHi++ {
			for cLo := 0; cLo < nC; cLo++ {
				for cHi := cLo + 1; cHi <= nC; cHi++ {
					r := rect{nuLo, nuHi, cLo, cHi}
					// The shard protocol can only express full c-spans over
					// multiple rows, but key derivation must line up for every
					// rectangle decompose may emit (multi-row ones always have
					// cLo = 0, cHi = nC).
					if nuHi-nuLo > 1 && (cLo != 0 || cHi != nC) {
						continue
					}
					sub := subSweep(parent, r)
					sk := CellKeys(sub)
					w := cHi - cLo
					for i := 0; i < nuHi-nuLo; i++ {
						for jc := 0; jc < w; jc++ {
							got := sk[i*w+jc]
							want := pk[(nuLo+i)*nC+cLo+jc]
							if got != want {
								t.Fatalf("rect %+v cell (%d,%d): sub key %s != parent key %s", r, i, jc, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestCellKeysSensitivity: the content address must move when anything
// semantic moves, and stay put for throughput-only knobs.
func TestCellKeysSensitivity(t *testing.T) {
	base := distsweep.Sweep{Spec: sweep.Spec{
		Grid:       sweep.Grid{N: 10, Delta: 3, NuValues: []float64{0.2}, CValues: []float64{1}},
		Seed:       9,
		Replicates: 2,
		Semantics:  sweep.Semantics{Rounds: 500, T: 4, Adversary: "private", ForkDepth: 4},
	}}
	k0 := CellKeys(base)[0]

	semantic := map[string]func(*distsweep.Sweep){
		"n":                 func(s *distsweep.Sweep) { s.N = 11 },
		"delta":             func(s *distsweep.Sweep) { s.Delta = 4 },
		"rounds":            func(s *distsweep.Sweep) { s.Rounds = 501 },
		"seed":              func(s *distsweep.Sweep) { s.Seed = 10 },
		"t":                 func(s *distsweep.Sweep) { s.T = 5 },
		"replicates":        func(s *distsweep.Sweep) { s.Replicates = 3 },
		"adversary":         func(s *distsweep.Sweep) { s.Adversary = "none" },
		"fork-depth":        func(s *distsweep.Sweep) { s.ForkDepth = 5 },
		"checker-retention": func(s *distsweep.Sweep) { s.CheckerRetention = 8 },
		"cell-offset":       func(s *distsweep.Sweep) { s.CellOffset = 1 },
		"scenario":          func(s *distsweep.Sweep) { s.Scenario = &scenario.Spec{Power: &scenario.PowerSpec{Heavy: 2}} },
	}
	for name, mutate := range semantic {
		s := base
		mutate(&s)
		if CellKeys(s)[0] == k0 {
			t.Errorf("%s change did not move the content address", name)
		}
	}

	throughput := map[string]func(*distsweep.Sweep){
		"engine-shards":      func(s *distsweep.Sweep) { s.EngineShards = 4 },
		"fast-forward":       func(s *distsweep.Sweep) { s.FastForward = true },
		"compact-every":      func(s *distsweep.Sweep) { s.CompactEvery = 100 },
		"compact-min-retire": func(s *distsweep.Sweep) { s.CompactMinRetire = 64 },
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

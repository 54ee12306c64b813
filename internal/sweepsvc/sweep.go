package sweepsvc

import (
	"fmt"

	"neatbound/internal/adversary"
	"neatbound/internal/sweep"
)

// maxJobRuns caps a job's cells × replicates. Validate checks it before
// any per-cell work, so a small request body naming a huge grid or
// replicate count is refused before the service allocates for it.
const maxJobRuns = 1 << 20

// Sweep is the sweep a job computes: the serializable sweep.Spec. The
// adversary travels by name, so a Sweep can be journalled and
// resubmitted.
type Sweep struct {
	sweep.Spec
}

// Validate rejects sweeps the service cannot run. Beyond the
// single-process checks it requires a non-negative chop parameter and
// retention window — a negative t fails every cell, and a negative
// retention runs as 0 but would key as itself, giving one computation
// two content addresses — at most maxJobRuns cell × replicate runs,
// and distinct (ν, c) pairs: the cell interchange keys records by their
// coordinates, so a grid with duplicate coordinates cannot be
// reassembled unambiguously.
func (s Sweep) Validate() error {
	if s.Rounds < 1 {
		return fmt.Errorf("sweepsvc: rounds = %d must be ≥ 1", s.Rounds)
	}
	if s.T < 0 {
		return fmt.Errorf("sweepsvc: t = %d must be ≥ 0", s.T)
	}
	if s.CheckerRetention < 0 {
		return fmt.Errorf("sweepsvc: checker_retention = %d must be ≥ 0 (0 keeps the whole run)", s.CheckerRetention)
	}
	if len(s.NuValues) == 0 || len(s.CValues) == 0 {
		return fmt.Errorf("sweepsvc: empty grid (%d ν × %d c)", len(s.NuValues), len(s.CValues))
	}
	if s.Replicates < 1 {
		return fmt.Errorf("sweepsvc: replicates = %d must be ≥ 1", s.Replicates)
	}
	// Divide rather than multiply: the products can overflow.
	nNu, nC := len(s.NuValues), len(s.CValues)
	if nNu > maxJobRuns/nC || s.Replicates > maxJobRuns/(nNu*nC) {
		return fmt.Errorf("sweepsvc: %d ν × %d c × %d replicates exceeds the %d runs one job may hold",
			nNu, nC, s.Replicates, maxJobRuns)
	}
	if s.Adversary != "" {
		if _, err := adversary.ByName(s.Adversary, s.ForkDepth); err != nil {
			return fmt.Errorf("sweepsvc: %w", err)
		}
	}
	if err := s.Scenario.Validate(); err != nil {
		return fmt.Errorf("sweepsvc: %w", err)
	}
	seen := make(map[cellCoord]struct{}, nNu*nC)
	for _, nu := range s.NuValues {
		for _, c := range s.CValues {
			k := cellCoord{nu, c}
			if _, dup := seen[k]; dup {
				return fmt.Errorf("sweepsvc: duplicate grid cell (ν=%g, c=%g): the cell interchange keys records by coordinates", nu, c)
			}
			seen[k] = struct{}{}
		}
	}
	return nil
}

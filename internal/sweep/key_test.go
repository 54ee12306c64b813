package sweep

import (
	"strings"
	"testing"

	"neatbound/internal/scenario"
)

func testJob() CellJob {
	return CellJob{
		EngineVersion: EngineVersion,
		N:             40, Delta: 8, Nu: 0.3, C: 2,
		Semantics: Semantics{
			Rounds: 20000, T: 4, SampleEvery: 400,
			Adversary: "private", ForkDepth: 4,
		},
		Seeds: []uint64{CellSeed(1, 0, 0), CellSeed(1, 0, 1)},
	}
}

// TestCellKeyDeterministic: the content address is a pure function of
// the job — same job, same key, across calls and copies.
func TestCellKeyDeterministic(t *testing.T) {
	a, b := testJob(), testJob()
	if a.Key() != b.Key() {
		t.Fatal("identical jobs produced different keys")
	}
	k := a.Key()
	if len(k) != 64 || strings.Trim(k, "0123456789abcdef") != "" {
		t.Fatalf("key %q is not lowercase hex SHA-256", k)
	}
}

// TestCellKeySensitivity: every semantic field moves the key; the
// zero-valued omitempty fields and their absence agree.
func TestCellKeySensitivity(t *testing.T) {
	k0 := testJob().Key()
	mutations := map[string]func(*CellJob){
		"engine-version":    func(j *CellJob) { j.EngineVersion++ },
		"n":                 func(j *CellJob) { j.N++ },
		"delta":             func(j *CellJob) { j.Delta++ },
		"nu":                func(j *CellJob) { j.Nu += 0.01 },
		"c":                 func(j *CellJob) { j.C += 0.5 },
		"rounds":            func(j *CellJob) { j.Rounds++ },
		"t":                 func(j *CellJob) { j.T++ },
		"sample-every":      func(j *CellJob) { j.SampleEvery++ },
		"adversary":         func(j *CellJob) { j.Adversary = "teasing" },
		"fork-depth":        func(j *CellJob) { j.ForkDepth++ },
		"checker-retention": func(j *CellJob) { j.CheckerRetention = 8 },
		"scenario":          func(j *CellJob) { j.Scenario = &scenario.Spec{Power: &scenario.PowerSpec{Heavy: 2}} },
		"seed-value":        func(j *CellJob) { j.Seeds[0]++ },
		"seed-count":        func(j *CellJob) { j.Seeds = j.Seeds[:1] },
		"seed-order":        func(j *CellJob) { j.Seeds[0], j.Seeds[1] = j.Seeds[1], j.Seeds[0] },
	}
	for name, mutate := range mutations {
		j := testJob()
		j.Seeds = append([]uint64(nil), j.Seeds...)
		mutate(&j)
		if j.Key() == k0 {
			t.Errorf("%s change did not move the key", name)
		}
	}
}

// TestCellSeedDistinct pins the derivation's injectivity along each
// axis — what reproducibility actually rests on. Replicates of one
// cell must not share a seed (XOR with a fixed mask is a bijection of
// the rep term), and one replicate index must not share a seed across
// cells (multiplication by the odd golden constant is a bijection of
// the cell term). Full (cell, rep) cross-product distinctness is NOT
// promised: the carry-free corners of the add can make, e.g.,
// (cell 3, rep 2) and (cell 1, rep 4) coincide, which is harmless
// because content addresses also key on the cell's (ν, c).
func TestCellSeedDistinct(t *testing.T) {
	for cell := 0; cell < 50; cell++ {
		seen := make(map[uint64]int)
		for rep := 0; rep < 200; rep++ {
			s := CellSeed(1, cell, rep)
			if prev, ok := seen[s]; ok {
				t.Fatalf("cell %d: rep %d and rep %d share seed %d", cell, rep, prev, s)
			}
			seen[s] = rep
		}
	}
	for rep := 0; rep < 50; rep++ {
		seen := make(map[uint64]int)
		for cell := 0; cell < 200; cell++ {
			s := CellSeed(1, cell, rep)
			if prev, ok := seen[s]; ok {
				t.Fatalf("rep %d: cell %d and cell %d share seed %d", rep, cell, prev, s)
			}
			seen[s] = cell
		}
	}
	// Different base seeds give different streams.
	if CellSeed(1, 3, 2) == CellSeed(2, 3, 2) {
		t.Error("base seed does not enter the derivation")
	}
}

// TestResolveSampleEvery pins the checker-sampling default the content
// address bakes in: rounds/50 clamped to ≥ 1, explicit values passed
// through.
func TestResolveSampleEvery(t *testing.T) {
	cases := []struct{ se, rounds, want int }{
		{0, 20000, 400},
		{0, 49, 1},
		{0, 50, 1},
		{0, 100, 2},
		{7, 20000, 7},
		{1, 10, 1},
	}
	for _, c := range cases {
		if got := ResolveSampleEvery(c.se, c.rounds); got != c.want {
			t.Errorf("ResolveSampleEvery(%d, %d) = %d, want %d", c.se, c.rounds, got, c.want)
		}
	}
}

// TestCellKeyGolden pins absolute content-address bytes: the sweepd
// store is keyed by these hashes across releases, so a refactor of
// CellJob's declaration (field order, embedding, JSON tags) must leave
// every one unchanged. The sample_every-0 job pins that the field is
// always encoded, never omitted.
func TestCellKeyGolden(t *testing.T) {
	seeds := []uint64{CellSeed(1, 0, 0), CellSeed(1, 0, 1)}
	cases := []struct {
		name string
		job  CellJob
		want string
	}{
		{"passive", CellJob{
			EngineVersion: EngineVersion, N: 40, Delta: 8, Nu: 0.3, C: 2,
			Semantics: Semantics{Rounds: 20000, T: 4, SampleEvery: 400}, Seeds: seeds,
		}, "d512073cb332e017b092d0daee0d36cae730ee8345bd7b28a69a3733261bed9c"},
		{"private-retention", CellJob{
			EngineVersion: EngineVersion, N: 40, Delta: 8, Nu: 0.3, C: 2,
			Semantics: Semantics{
				Rounds: 20000, T: 4, SampleEvery: 400,
				Adversary: "private", ForkDepth: 4, CheckerRetention: 16,
			},
			Seeds: seeds,
		}, "afb81108b6afb96206fda8d2f3bae4c9b1106fd2c4f0843b89f15c8f97f1de17"},
		{"sample-every-zero", CellJob{
			EngineVersion: EngineVersion, N: 10, Delta: 3, Nu: 0.2, C: 1,
			Semantics: Semantics{Rounds: 400, T: 4}, Seeds: seeds[:1],
		}, "2cef5ade479dc57ae370dbf0a4a1f634a5d5c06c76abe4ed0849ae9db5712388"},
	}
	for _, c := range cases {
		if got := c.job.Key(); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}

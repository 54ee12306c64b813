package main

import (
	"testing"

	"neatbound"
)

func TestRunShortSimulation(t *testing.T) {
	if err := run([]string{"-n", "20", "-delta", "2", "-nu", "0.25", "-c", "5", "-rounds", "2000", "-adversary", "passive"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunEveryAdversary(t *testing.T) {
	for _, adv := range []string{"passive", "max-delay", "private", "balance", "selfish"} {
		if err := run([]string{"-n", "20", "-delta", "2", "-nu", "0.25", "-c", "5",
			"-rounds", "500", "-adversary", adv}); err != nil {
			t.Errorf("%s: %v", adv, err)
		}
	}
}

func TestRunUnknownAdversary(t *testing.T) {
	if err := run([]string{"-adversary", "nope", "-rounds", "10"}); err == nil {
		t.Error("unknown adversary accepted")
	}
}

func TestRunInfeasibleParams(t *testing.T) {
	// c so small that p ≥ 1.
	if err := run([]string{"-n", "4", "-delta", "1", "-c", "0.01", "-rounds", "10"}); err == nil {
		t.Error("infeasible parameterization accepted")
	}
}

func TestNewAdversaryNames(t *testing.T) {
	for _, name := range neatbound.AdversaryNames() {
		adv, err := neatbound.NewAdversaryByName(name, neatbound.AdversaryOpts{ForkDepth: 3})
		if err != nil {
			t.Fatal(err)
		}
		if adv.Name() != name && !(name == "private" && adv.Name() == "private-mining") {
			t.Errorf("constructor for %q named %q", name, adv.Name())
		}
	}
}

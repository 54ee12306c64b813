package neatbound_test

import (
	"context"
	"fmt"
	"log"

	"neatbound"
)

// The headline result: the c each analysis requires at ν = 0.3.
func ExampleNeatBoundC() {
	c, err := neatbound.NeatBoundC(0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consistency holds for c slightly above %.4f\n", c)
	// Output:
	// consistency holds for c slightly above 1.6523
}

// Inverting the Figure-1 curves at c = 2.
func ExampleNeatBoundNuMax() {
	neat, _ := neatbound.NeatBoundNuMax(2)
	pss, _ := neatbound.PSSConsistencyNuMax(2)
	attack, _ := neatbound.PSSAttackNuMin(2)
	fmt.Printf("neat νmax %.4f, PSS νmax %.4f, attack νmin %.4f\n", neat, pss, attack)
	// Output:
	// neat νmax 0.3410, PSS νmax 0.0000, attack νmin 0.4384
}

// Classifying a parameterization inside the paper's improvement region.
func ExampleClassify() {
	pr, err := neatbound.ParamsFromC(100000, 1000, 0.3, 2.0)
	if err != nil {
		log.Fatal(err)
	}
	v, err := neatbound.Classify(pr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(v.Certified, v.PSSCertified, v.AttackApplies)
	// Output:
	// true false false
}

// How many confirmations a merchant needs against a 25% adversary.
func ExampleConfirmationsForRisk() {
	t, err := neatbound.ConfirmationsForRisk(0.25, 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d confirmations push the fork risk below 0.1%%\n", t)
	// Output:
	// 7 confirmations push the fork risk below 0.1%
}

// A complete simulation with consistency verification.
func ExampleRun() {
	pr, err := neatbound.ParamsFromC(20, 2, 0.25, 12.5)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := neatbound.Run(context.Background(), pr,
		neatbound.WithRounds(20000),
		neatbound.WithSeed(1),
		neatbound.WithConsistency(8, 0),
		neatbound.WithAdversary(neatbound.NewMaxDelayAdversary()),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("violations at T=8: %d, Lemma-1 margin positive: %v\n",
		rep.Violations, rep.Ledger.Margin() > 0)
	// Output:
	// violations at T=8: 0, Lemma-1 margin positive: true
}

// Adaptive corruption: the paper's model lets the adversary corrupt and
// uncorrupt players at any point (Section III), capped at fraction ν.
// This example oscillates the corrupted set and shows that what governs
// consistency is the ν the adversary actually wields: a run that
// averages ν̄ behaves like the static-ν̄ run, and consistency follows the
// neat bound evaluated at the cap.
package main

import (
	"context"
	"fmt"
	"log"

	"neatbound"
)

func main() {
	pr, err := neatbound.ParamsFromC(40, 4, 0.45, 8) // cap ν at 0.45, c above its bound 5.48
	if err != nil {
		log.Fatal(err)
	}
	// The adversary corrupts aggressively in bursts: 45% for 200 rounds,
	// then releases down to 10%.
	schedule := func(round int) float64 {
		if (round/200)%2 == 0 {
			return 0.45
		}
		return 0.10
	}
	var advBlocks, honestBlocks int
	rep, err := neatbound.Run(context.Background(), pr,
		neatbound.WithRounds(100000),
		neatbound.WithSeed(3),
		neatbound.WithAdversary(neatbound.NewMaxDelayAdversary()),
		neatbound.WithNuSchedule(schedule),
		neatbound.WithConsistency(8, 2000),
		neatbound.WithObserver(neatbound.ObserverFunc(func(_ *neatbound.Engine, rec neatbound.RoundRecord) {
			advBlocks += rec.AdversaryMined
			honestBlocks += rec.HonestMined
		})),
	)
	if err != nil {
		log.Fatal(err)
	}
	meanNu := (0.45 + 0.10) / 2
	fmt.Printf("adaptive corruption between ν=0.10 and ν=0.45 (mean %.3f), c=8\n", meanNu)
	fmt.Printf("blocks: honest %d, adversarial %d (adversarial share %.3f vs mean ν %.3f)\n",
		honestBlocks, advBlocks,
		float64(advBlocks)/float64(advBlocks+honestBlocks), meanNu)
	fmt.Printf("consistency at T=8: %d violations\n", rep.Violations)

	bound, err := neatbound.NeatBoundC(0.45)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nneat bound at the corruption cap ν=0.45: c > %.3f — we ran at c=8, so\n", bound)
	fmt.Println("even the worst burst is covered; the run stays consistent.")
}

// Command simulate executes Nakamoto's protocol in the Δ-delay model
// under a chosen adversary and reports the consistency analysis: the
// Definition-1 violations at chop T, the Lemma-1 ledger (convergence
// opportunities vs adversarial blocks) against the Eq. 26/27 predictions,
// and the chain growth/quality metrics.
//
// Usage:
//
//	simulate -n 100 -delta 4 -nu 0.3 -c 2 -rounds 100000 -adversary max-delay -T 8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"neatbound"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	n := fs.Int("n", 100, "number of miners")
	delta := fs.Int("delta", 4, "delay bound Δ (rounds)")
	nu := fs.Float64("nu", 0.3, "adversarial power fraction")
	c := fs.Float64("c", 2, "expected Δ-delays per block, c = 1/(pnΔ)")
	rounds := fs.Int("rounds", 100000, "rounds to simulate")
	seed := fs.Uint64("seed", 1, "random seed")
	advName := fs.String("adversary", "max-delay",
		"strategy: "+strings.Join(neatbound.AdversaryNames(), "|"))
	forkDepth := fs.Int("fork-depth", 4, "private adversary's target fork depth")
	tee := fs.Int("T", 8, "consistency chop parameter (Definition 1)")
	scenarioArg := fs.String("scenario", "",
		"scenario layer: a preset name ("+strings.Join(neatbound.ScenarioNames(), "|")+") or a JSON spec (docs/scenarios.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pr, err := neatbound.ParamsFromC(*n, *delta, *nu, *c)
	if err != nil {
		return err
	}
	scn, err := neatbound.ParseScenario(*scenarioArg)
	if err != nil {
		return err
	}
	verdict, err := neatbound.Classify(pr)
	if err != nil {
		return err
	}
	fmt.Printf("parameters: n=%d Δ=%d ν=%g c=%g (p=%.4g), adversary=%s, %d rounds\n",
		*n, *delta, *nu, *c, pr.P, *advName, *rounds)
	fmt.Println("theory:    ", verdict)

	opts := []neatbound.Option{
		neatbound.WithRounds(*rounds),
		neatbound.WithSeed(*seed),
		neatbound.WithAdversaryName(*advName, neatbound.AdversaryOpts{ForkDepth: *forkDepth}),
		neatbound.WithConsistency(*tee, 0),
	}
	if scn != nil {
		opts = append(opts, neatbound.WithScenario(scn))
	}
	rep, err := neatbound.Run(context.Background(), pr, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("\nblocks: honest %d, adversarial %d (predicted adversarial %.1f, Eq. 27)\n",
		rep.HonestBlocks, rep.AdversaryBlocks, rep.PredictedAdversary)
	fmt.Printf("convergence opportunities: %d (predicted %.1f, Eq. 26)\n",
		rep.Ledger.Convergence, rep.PredictedConvergence)
	fmt.Printf("Lemma-1 margin C−A: %d (positive ⇒ consistency mechanism winning)\n", rep.Ledger.Margin())
	fmt.Printf("consistency at T=%d: %d violations; deepest fork %d\n",
		*tee, rep.Violations, rep.MaxForkDepth)
	fmt.Printf("chain growth %.5g blocks/round, quality %.3f (fair share µ=%.2f), main-chain share %.3f\n",
		rep.ChainGrowthRate, rep.ChainQuality, pr.Mu(), rep.MainChainShare)
	if rep.Violations > 0 {
		v := rep.ViolationList[0]
		fmt.Printf("first violation: rounds (%d, %d), fork depth %d\n", v.RoundR, v.RoundS, v.ForkDepth)
	}
	return nil
}

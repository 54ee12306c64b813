package adversary

import (
	"fmt"
	"strings"

	"neatbound/internal/engine"
)

// DefaultForkDepth is the private-mining strategy's default minimum
// published fork depth, used when ByName gets forkDepth ≤ 0.
const DefaultForkDepth = 4

// Names lists the strategy names ByName accepts, in CLI display order.
// It is the one canonical list: the façade's AdversaryNames and the
// distributed sweep worker's spec validation both read it.
func Names() []string {
	return []string{"passive", "max-delay", "private", "balance", "selfish"}
}

// ByName builds a fresh strategy from its experiment/CLI name — the one
// switch shared by the façade (NewAdversaryByName) and the sweep
// service, which must resolve the name carried in a job request without
// importing the façade. forkDepth ≤ 0 picks DefaultForkDepth;
// strategies other than "private" ignore it. Strategies are stateful:
// call ByName once per concurrent run.
func ByName(name string, forkDepth int) (engine.Adversary, error) {
	if forkDepth <= 0 {
		forkDepth = DefaultForkDepth
	}
	switch name {
	case "passive":
		return engine.PassiveAdversary{}, nil
	case "max-delay":
		return MaxDelay{}, nil
	case "private":
		return &PrivateMining{MinForkDepth: forkDepth}, nil
	case "balance":
		return &Balance{}, nil
	case "selfish":
		return &Selfish{}, nil
	default:
		return nil, fmt.Errorf("adversary: unknown strategy %q (%s)",
			name, strings.Join(Names(), "|"))
	}
}

// Factory validates name once and returns a constructor that builds a
// fresh strategy per call and cannot fail — what a sweep needs, since
// every cell runs its own stateful instance.
func Factory(name string, forkDepth int) (func() engine.Adversary, error) {
	if _, err := ByName(name, forkDepth); err != nil {
		return nil, err
	}
	return func() engine.Adversary {
		adv, _ := ByName(name, forkDepth) // validated above
		return adv
	}, nil
}

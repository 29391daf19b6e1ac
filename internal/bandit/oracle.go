// Package bandit provides the benchmark controllers EdgeBOL is compared
// against in §6: the DDPG actor-critic baseline adapted to the contextual
// bandit setting (inspired by vrAIn, as in the paper's Fig. 14) and the
// offline exhaustive-search oracle of Figs. 10 and 12.
package bandit

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// ExpectedFn evaluates the noise-free KPI surface (the testbed's Expected).
type ExpectedFn func(core.Control) (core.KPIs, error)

// Oracle exhaustively searches the expected-KPI surface for the cheapest
// feasible control — the paper's offline benchmark, "unfeasible in practice"
// but a lower bound on attainable cost.
func Oracle(expected ExpectedFn, grid core.GridSpec, w core.CostWeights, cons core.Constraints) (core.Control, float64, error) {
	ctls, err := grid.Enumerate()
	if err != nil {
		return core.Control{}, 0, err
	}
	best := core.Control{}
	bestCost := math.Inf(1)
	for _, x := range ctls {
		k, err := expected(x)
		if err != nil {
			return core.Control{}, 0, err
		}
		if cons.Satisfied(k) && w.Cost(k) < bestCost {
			bestCost = w.Cost(k)
			best = x
		}
	}
	if math.IsInf(bestCost, 1) {
		return core.Control{}, 0, fmt.Errorf("bandit: no feasible control on the grid")
	}
	return best, bestCost, nil
}

package main

import (
	"math"

	"abft/internal/tealeaf"
)

// convRow is one scheme's convergence-perturbation measurement (paper
// section VI-B): the solver must converge with the solution norm within
// 2.0e-11 percent of the unprotected answer and fewer than 1 percent extra
// iterations despite the redundancy stored in the mantissa LSBs.
type convRow struct {
	label string
	// iterations is the total CG iteration count over the run.
	iterations int
	// iterGrowthPct is the iteration increase relative to unprotected.
	iterGrowthPct float64
	// normDiffPct is the solution-norm difference in percent.
	normDiffPct float64
	// checks and corrected summarise the ABFT activity.
	checks, corrected uint64
}

// convergence measures the solution perturbation caused by each scheme's
// embedded redundancy.
func convergence(c config) ([]convRow, error) {
	run := func(p protection) (*tealeaf.Simulation, tealeaf.RunResult, error) {
		sim, err := tealeaf.New(c.workloadConfig(p))
		if err != nil {
			return nil, tealeaf.RunResult{}, err
		}
		res, err := sim.Run()
		return sim, res, err
	}
	baseSim, baseRes, err := run(protection{})
	if err != nil {
		return nil, err
	}
	baseNorm := l2(baseSim.Energy())

	rows := make([]convRow, 0, len(schemeVariants))
	for _, v := range schemeVariants {
		sim, res, err := run(protection{elem: v.scheme, rowptr: v.scheme,
			vec: v.scheme, backend: v.backend})
		if err != nil {
			return rows, err
		}
		norm := l2(sim.Energy())
		rows = append(rows, convRow{
			label:      v.label,
			iterations: res.TotalIterations,
			iterGrowthPct: 100 * float64(res.TotalIterations-baseRes.TotalIterations) /
				float64(baseRes.TotalIterations),
			normDiffPct: 100 * math.Abs(norm-baseNorm) / baseNorm,
			checks:      res.Counters.Checks,
			corrected:   res.Counters.Corrected,
		})
	}
	return rows, nil
}

// normDiffBudgetPct is the paper's observed bound on the solution norm
// perturbation: 2.0e-11 percent.
const normDiffBudgetPct = 2.0e-11

// iterGrowthBudgetPct is the paper's observed bound on iteration growth.
const iterGrowthBudgetPct = 1.0

func l2(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s)
}

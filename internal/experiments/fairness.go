package experiments

import (
	"math"

	"blu/internal/sim"
)

// fairnessSweep is the 8-UE SISO testbed over 1–3 hidden terminals per
// UE and several placements: PF versus the full BLU controller.
func fairnessSweep(o Options) *sweep {
	const nUE = 8
	sfs := o.scaled(8000, 1600)
	return &sweep{
		points: len(densities),
		reps:   o.scaled(4, 2),
		seed: func(x, p int) uint64 {
			return o.Seed + uint64(densities[x])*211 + uint64(p)*17
		},
		cell: func(x int, seed uint64) (*sim.Cell, error) {
			return testbedCell(nUE, densities[x]*nUE, 1, sfs, seed)
		},
		subframes: sfs,
		arms:      []arm{pf, controller(sfs)},
	}
}

// fairnessTable checks the claim of Section 3.2 that BLU's speculative
// scheduler increases utilization "while still adhering to the PF
// principle". Proportional fairness maximizes Σ log R_i, not bit-level
// evenness, so the right check is the PF objective itself: BLU should
// achieve at least the PF scheduler's own Σ log R_i while delivering
// more. Jain's index over raw bits is reported alongside for context —
// it is expected to dip (heavily-blocked clients simply cannot receive
// as much in unlicensed spectrum, and over-scheduling amplifies the
// delivered-bits spread without violating the log-utility objective).
func fairnessTable(_ Options, res *result) *Table {
	t := &Table{
		ID:      "fairness",
		Title:   "PF-principle adherence: Jain index and PF log-utility",
		Columns: []string{"ht_per_ue", "pf_jain", "blu_jain", "pf_log_utility", "blu_log_utility"},
		claims: []claim{{"pf-utility-kept", "BLU's Σ log R_i ≥ the PF scheduler's own − 2 in every row (paper: adheres to the PF principle)",
			func(t *Table) float64 { return t.diff("blu_log_utility", "pf_log_utility") + 2 }}},
	}
	// The controller's metrics cover its speculative subframes only, so
	// each arm's rates are over the subframes its metrics span.
	jain := func(m outcome) float64 { return m.JainFairness }
	utility := func(m outcome) float64 { return logUtility(m.BitsPerUE, m.Subframes) }
	for d, hPerUE := range densities {
		t.AddRow(hPerUE, res.mean(d, 0, jain), res.mean(d, 1, jain), res.mean(d, 0, utility), res.mean(d, 1, utility))
	}
	return t
}

// logUtility is the proportional-fair objective Σ_i log(R_i), with R_i
// the client's average rate in kbit/s over the phase; starved clients
// floor at 1 kbit/s so the comparison stays finite.
func logUtility(bits []float64, subframes int) float64 {
	if subframes <= 0 {
		return 0
	}
	var u float64
	for _, b := range bits {
		rate := b / float64(subframes) // kbit/s (bits per ms)
		if rate < 1 {
			rate = 1
		}
		u += math.Log(rate)
	}
	return u
}

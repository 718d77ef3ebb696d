package experiments

import (
	"slices"

	"blu/internal/lte"
	"blu/internal/rng"
	"blu/internal/sim"
	"blu/internal/wifi"
)

// nomaSweep is the Section 5 cell: 8 SISO UEs and 1–3 hidden terminals
// per UE under orthogonal and under NOMA (SIC) reception, point x =
// (densities[x/2] hidden terminals per UE, NOMA = x%2 == 1), BLU's
// speculative scheduler on the inferred blueprint.
func nomaSweep(o Options) *sweep {
	const nUE = 8
	sfs := o.scaled(6000, 1200)
	return &sweep{
		points: 2 * len(densities),
		seed:   func(x, _ int) uint64 { return o.Seed + uint64(densities[x/2]) },
		cell: func(x int, seed uint64) (*sim.Cell, error) {
			r := rng.New(seed)
			nHT := densities[x/2] * nUE
			stations := make([]wifi.Station, nHT)
			for k := range stations {
				stations[k].Traffic = wifi.DutyCycle{Target: 0.25 + 0.3*r.Float64()}
			}
			sc, err := sim.NewTestbedScenario(nUE, nHT, seed)
			if err != nil {
				return nil, err
			}
			return sim.New(sim.Config{
				Scenario:  sc,
				Stations:  stations,
				M:         1,
				NOMA:      x%2 == 1,
				Subframes: sfs,
				Seed:      r.Uint64(),
			})
		},
		subframes: sfs,
		arms:      []arm{blu(inferred)},
	}
}

// nomaTable reproduces the Section 5 discussion: BLU's speculative
// scheduler composes with non-orthogonal multiple access. Under
// orthogonal reception, an over-scheduling misjudgment (two SISO
// clients clear at once) is a collision losing both streams; with SIC
// the eNB often recovers one or both, so the same speculative schedule
// delivers more and the collision penalty that disciplines
// over-scheduling softens.
func nomaTable(_ Options, res *result) *Table {
	t := &Table{
		ID:      "noma",
		Title:   "Speculative scheduling under orthogonal vs NOMA (SIC) reception, SISO",
		Columns: []string{"ht_per_ue", "blu_oma_mbps", "blu_noma_mbps", "noma_gain", "oma_collisions", "noma_collisions"},
		claims: []claim{
			{"fewer-collisions", "NOMA collisions at or below orthogonal ones in every row",
				func(t *Table) float64 { return t.diff("oma_collisions", "noma_collisions") }},
			{"no-loss", "NOMA throughput ≥ 0.95× orthogonal in every row",
				func(t *Table) float64 { return slices.Min(t.col("noma_gain")) - 0.95 }},
		},
	}
	for i, hPerUE := range densities {
		oma, noma := res.at(2*i, 0), res.at(2*i+1, 0)
		t.AddRow(hPerUE,
			oma.ThroughputMbps, noma.ThroughputMbps, ratio(noma.ThroughputMbps, oma.ThroughputMbps),
			oma.Outcomes[lte.OutcomeCollision], noma.Outcomes[lte.OutcomeCollision])
	}
	return t
}

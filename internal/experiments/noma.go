package experiments

import (
	"blu/internal/lte"
	"blu/internal/rng"
	"blu/internal/sched"
	"blu/internal/sim"
	"blu/internal/wifi"
)

// NOMA reproduces the Section 5 discussion: BLU's speculative scheduler
// composes with non-orthogonal multiple access. Under orthogonal
// reception, an over-scheduling misjudgment (two SISO clients clear at
// once) is a collision losing both streams; with SIC the eNB often
// recovers one or both, so the same speculative schedule delivers more
// and the collision penalty that disciplines over-scheduling softens.
func NOMA(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "noma",
		Title:   "Speculative scheduling under orthogonal vs NOMA (SIC) reception, SISO",
		Columns: []string{"ht_per_ue", "blu_oma_mbps", "blu_noma_mbps", "noma_gain", "oma_collisions", "noma_collisions"},
		Notes: []string{
			"shape: NOMA recovers part of the over-scheduling collisions; gain grows with interference",
		},
	}
	sfs := opts.scaled(6000, 1200)
	const nUE = 8
	for _, hPerUE := range []int{1, 2, 3} {
		var rows [2]*sim.Metrics
		for variant, noma := range []bool{false, true} {
			r := rng.New(opts.Seed + uint64(hPerUE))
			nHT := hPerUE * nUE
			stations := make([]wifi.Station, nHT)
			for k := range stations {
				stations[k].Traffic = wifi.DutyCycle{Target: 0.25 + 0.3*r.Float64()}
			}
			sc, err := sim.NewTestbedScenario(nUE, nHT, opts.Seed+uint64(hPerUE))
			if err != nil {
				return nil, err
			}
			cell, err := sim.New(sim.Config{
				Scenario:  sc,
				Stations:  stations,
				M:         1,
				NOMA:      noma,
				Subframes: sfs,
				Seed:      r.Uint64(),
			})
			if err != nil {
				return nil, err
			}
			calc, _, err := inferredDistribution(cell, opts.Seed)
			if err != nil {
				return nil, err
			}
			spec, err := sched.NewSpeculative(cell.Env(), calc)
			if err != nil {
				return nil, err
			}
			rows[variant] = sim.Run(cell, spec, 0, sfs, nil)
		}
		gain := 0.0
		if rows[0].ThroughputMbps > 0 {
			gain = rows[1].ThroughputMbps / rows[0].ThroughputMbps
		}
		t.AddRow(hPerUE,
			rows[0].ThroughputMbps, rows[1].ThroughputMbps, gain,
			rows[0].Outcomes[lte.OutcomeCollision], rows[1].Outcomes[lte.OutcomeCollision])
	}
	return t, nil
}

package experiments

import (
	"slices"

	"blu/internal/sim"
)

// dlSweep is the Section 3.7 "Applicability to DL Access" cell: 8 UEs,
// a growing hidden-terminal count, native PF versus access-aware
// scheduling over the downlink-clean marginals. Light airtimes: the
// whole 1 ms DL subframe is exposed, so even modest duty cycles already
// produce heavy collision rates.
func dlSweep(o Options) *sweep {
	sfs := o.scaled(6000, 1200)
	return &sweep{
		points: len(dlHTs),
		seed:   func(x, _ int) uint64 { return o.Seed + uint64(dlHTs[x]) },
		cell: func(x int, seed uint64) (*sim.Cell, error) {
			return testbedCellDuty(8, dlHTs[x], 1, sfs, seed, 0.05, 0.2, nil)
		},
		subframes: sfs,
		downlink:  true,
		arms:      []arm{pf, aa(dlClean)},
	}
}

var dlHTs = []int{4, 8, 12}

// dlTable reproduces the Section 3.7 discussion: on the downlink,
// hidden terminals corrupt the scheduled UEs' reception (collisions)
// instead of wasting grants, and while over-scheduling transmissions
// is impossible, blueprint-driven access-aware scheduling (Eqn 5)
// steers DL allocations toward clients whose interferers are likely
// idle, reducing collisions and raising efficiency.
func dlTable(_ Options, res *result) *Table {
	t := &Table{
		ID:      "dl",
		Title:   "Downlink: PF vs blueprint-driven access-aware scheduling",
		Columns: []string{"config", "pf_mbps", "aa_mbps", "aa_gain", "pf_collision_rate", "aa_collision_rate"},
		claims: []claim{
			{"aa-cuts-collisions", "AA's collision rate at or below PF's in every row",
				func(t *Table) float64 { return t.diff("pf_collision_rate", "aa_collision_rate") }},
			{"aa-no-loss", "AA's throughput ≥ 0.98× PF's in every row (no over-scheduling is possible on DL)",
				func(t *Table) float64 { return slices.Min(t.col("aa_gain")) - 0.98 }},
		},
	}
	for x, nHT := range dlHTs {
		pfM, aaM := res.at(x, 0).Metrics, res.at(x, 1).Metrics
		t.AddRow(
			nHT,
			pfM.ThroughputMbps, aaM.ThroughputMbps, aaM.GainOver(pfM),
			collisionRate(pfM), collisionRate(aaM),
		)
	}
	return t
}

package experiments

import "blu/internal/sim"

// testbedSweep is the testbed experiment of Section 4.1 for a given
// antenna count: 4 UEs, a growing number of hidden terminals per UE,
// multiple placements, PF versus the full BLU pipeline (measurement →
// blueprint → speculative scheduling). Figs 10 and 12 read its SISO
// runs, Figs 11 and 13 its MU-MIMO ones.
func testbedSweep(o Options, m int) *sweep {
	const nUE = 4
	sfs := o.scaled(6000, 1200)
	return &sweep{
		points: len(densities),
		reps:   o.scaled(5, 2),
		seed: func(x, p int) uint64 {
			return o.Seed + uint64(densities[x])*1000 + uint64(p)*13
		},
		cell: func(x int, seed uint64) (*sim.Cell, error) {
			return testbedCell(nUE, densities[x]*nUE, m, sfs, seed)
		},
		subframes: sfs,
		arms:      []arm{pf, controller(sfs)},
	}
}

// densities are the hidden terminals per UE of the testbed sweeps:
// Figs 10–13, noma and fairness.
var densities = []int{1, 2, 3}

// testbedGains renders a testbed sweep as PF versus BLU per density,
// averaged over placements: throughput, or RB utilization.
func testbedGains(id, title string, utilization bool) func(Options, *result) *Table {
	cols := []string{"ht_per_ue", "pf_mbps", "blu_mbps", "throughput_gain"}
	metric := func(o outcome) float64 { return o.ThroughputMbps }
	if utilization {
		cols = []string{"ht_per_ue", "pf_rb_util", "blu_rb_util", "utilization_gain"}
		metric = func(o outcome) float64 { return o.RBUtilization }
	}
	gain := cols[3]
	return func(_ Options, res *result) *Table {
		t := &Table{ID: id, Title: title, Columns: cols, claims: []claim{
			{"gain-grows", "gain at 3 hidden terminals per UE ≥ gain at 1",
				func(t *Table) float64 { g := t.col(gain); return last(g) - g[0] }},
			{"gain-at-3", "gain ≥ 1.3× at 3 hidden terminals per UE (paper: 1.5–1.8×)",
				func(t *Table) float64 { return last(t.col(gain)) - 1.3 }},
		}}
		for d, hPerUE := range densities {
			pfMean, bluMean := res.mean(d, 0, metric), res.mean(d, 1, metric)
			t.AddRow(hPerUE, pfMean, bluMean, ratio(bluMean, pfMean))
		}
		return t
	}
}

// Figs 10–13 read the testbed sweeps: BLU's SISO (Figs 10, 12) and
// 2-user MU-MIMO (Figs 11, 13) throughput and RB-utilization gains over
// PF as hidden terminals per UE increase. The paper reports 50–80% SISO
// throughput gains and up to ~80% utilization boost.
var (
	fig10 = testbedGains("fig10", "BLU SISO throughput gains (testbed, 4 UEs)", false)
	fig11 = testbedGains("fig11", "BLU MU-MIMO (M=2) throughput gains (testbed, 4 UEs)", false)
	fig12 = testbedGains("fig12", "BLU SISO RB utilization gains (testbed, 4 UEs)", true)
	fig13 = testbedGains("fig13", "BLU MU-MIMO (M=2) RB utilization (testbed, 4 UEs)", true)
)

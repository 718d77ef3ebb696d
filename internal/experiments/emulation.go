package experiments

import (
	"fmt"
	"slices"

	"blu/internal/sim"
)

// perfectSweep is Fig 15's single 24-UE SISO cell: PF, and AA and BLU
// over the joint distributions computed directly from the traces.
func perfectSweep(o Options) *sweep {
	sfs := o.scaled(6000, 1500)
	return &sweep{
		points: 1,
		seed:   func(_, _ int) uint64 { return o.Seed },
		cell: func(_ int, seed uint64) (*sim.Cell, error) {
			return emulatedCell(24, 1, sfs, seed)
		},
		subframes: sfs,
		arms:      []arm{pf, aa(perfect), blu(perfect)},
	}
}

// fig15 reproduces Fig 15: LTE SISO throughput of PF, AA, and BLU with
// *perfect knowledge* of the joint access distributions (computed
// directly from the traces), 24 UEs, up to 10 UEs per subframe. The
// paper reports 3.8 / 3.5 / 6.8 Mbps — BLU 1.8–1.9× over both, which
// isolates the speculative scheduler from inference error.
func fig15(_ Options, res *result) *Table {
	pf, aa, blu := res.at(0, 0), res.at(0, 1), res.at(0, 2)
	t := &Table{
		ID:      "fig15",
		Title:   "SISO throughput, perfect joint-access knowledge (24 UEs, K=10)",
		Columns: []string{"scheduler", "throughput_mbps", "gain_over_pf"},
		claims: []claim{
			{"blu-over-pf", "BLU ≥ 1.4× PF (paper: 1.8×)",
				func(t *Table) float64 { m := t.col("throughput_mbps"); return m[2]/m[0] - 1.4 }},
			{"blu-over-aa", "BLU at or above AA (paper: 1.9×)",
				func(t *Table) float64 { m := t.col("throughput_mbps"); return m[2]/m[1] - 1 }},
			{"aa-not-above-pf", "AA at or below PF (paper: 3.5 against 3.8 Mbps)",
				func(t *Table) float64 { m := t.col("throughput_mbps"); return 1 - m[1]/m[0] }},
		},
	}
	t.AddRow("PF", pf.ThroughputMbps, 1.0)
	t.AddRow("AA", aa.ThroughputMbps, aa.GainOver(pf.Metrics))
	t.AddRow("BLU", blu.ThroughputMbps, blu.GainOver(pf.Metrics))
	return t
}

// ueSweep is Fig 16's SISO cells of 8, 16 and 24 UEs: PF, and BLU on
// the inferred and on the perfect distribution.
func ueSweep(o Options) *sweep {
	sfs := o.scaled(6000, 1500)
	return &sweep{
		points: len(sweepUEs),
		seed:   func(x, _ int) uint64 { return o.Seed + uint64(sweepUEs[x]) },
		cell: func(x int, seed uint64) (*sim.Cell, error) {
			return emulatedCell(sweepUEs[x], 1, sfs, seed)
		},
		subframes: sfs,
		arms:      []arm{pf, blu(inferred), blu(perfect)},
	}
}

var sweepUEs = []int{8, 16, 24}

// fig16 reproduces Fig 16: SISO throughput versus the number of UEs
// when BLU runs on its *inferred* topology (Section 3.6 higher-order
// distributions) instead of trace oracles. The paper's point: gains
// stay close to the perfect-knowledge 1.8× at 24 UEs and grow with the
// UE count.
func fig16(_ Options, res *result) *Table {
	t := &Table{
		ID:      "fig16",
		Title:   "SISO throughput vs number of UEs (BLU on inferred topology)",
		Columns: []string{"num_ue", "pf_mbps", "blu_inferred_mbps", "blu_perfect_mbps", "gain_inferred", "gain_perfect"},
		claims: []claim{
			{"inferred-near-perfect", "gain on the inferred blueprint ≥ 0.9× the perfect-knowledge gain at every UE count",
				func(t *Table) float64 {
					inf, perf := t.col("gain_inferred"), t.col("gain_perfect")
					return t.every(func(r int) float64 { return inf[r]/perf[r] - 0.9 })
				}},
			{"gain-grows", "inferred gain at 24 UEs ≥ inferred gain at 8",
				func(t *Table) float64 { g := t.col("gain_inferred"); return last(g) - g[0] }},
			{"gain-at-24", "inferred gain ≥ 1.4× at 24 UEs (paper: ~1.8×)",
				func(t *Table) float64 { return last(t.col("gain_inferred")) - 1.4 }},
		},
	}
	for x, nUE := range sweepUEs {
		pf, mInf, mPerf := res.at(x, 0).Metrics, res.at(x, 1), res.at(x, 2)
		t.AddRow(nUE, pf.ThroughputMbps, mInf.ThroughputMbps, mPerf.ThroughputMbps,
			mInf.GainOver(pf), mPerf.GainOver(pf))
	}
	return t
}

// mimoSweep is the 24-UE cell of Figs 17 and 18 at MU-MIMO order
// M ∈ {1, 2, 4}: PF, AA and BLU on the inferred blueprint. Fig 17 reads
// its throughput, Fig 18 its RB utilization.
func mimoSweep(o Options) *sweep {
	sfs := o.scaled(5000, 1200)
	return &sweep{
		points: len(sweepMs),
		seed:   func(x, _ int) uint64 { return o.Seed + uint64(sweepMs[x])*7 },
		cell: func(x int, seed uint64) (*sim.Cell, error) {
			return emulatedCell(24, sweepMs[x], sfs, seed)
		},
		subframes: sfs,
		arms:      []arm{pf, aa(inferred), blu(inferred)},
	}
}

var sweepMs = []int{1, 2, 4}

// fig17 reproduces Fig 17: throughput gain over PF at 24 UEs as the
// MU-MIMO order M grows (1, 2, 4). The paper reports BLU's gain rising
// to ~2× at M=4 while AA stays near 1×.
func fig17(_ Options, res *result) *Table {
	t := &Table{
		ID:      "fig17",
		Title:   "Throughput gain over PF vs MU-MIMO order (24 UEs)",
		Columns: []string{"antennas_m", "pf_mbps", "aa_gain", "blu_gain"},
		claims: []claim{
			{"blu-grows-with-m", "BLU's gain at M=4 ≥ its gain at M=1",
				func(t *Table) float64 { g := t.col("blu_gain"); return last(g) - g[0] }},
			{"blu-at-m4", "BLU's gain ≥ 1.5× at M=4 (paper: ~2×)",
				func(t *Table) float64 { return last(t.col("blu_gain")) - 1.5 }},
			{"blu-over-aa", "BLU's gain above AA's at every M",
				func(t *Table) float64 { return above(t.diff("blu_gain", "aa_gain"), 0) }},
			{"aa-near-1x", "AA's gain ≤ 1.1× at every M (paper: ≈ 1×)",
				func(t *Table) float64 { return 1.1 - slices.Max(t.col("aa_gain")) }},
		},
	}
	for x, m := range sweepMs {
		pf, aa, blu := res.at(x, 0).Metrics, res.at(x, 1), res.at(x, 2)
		t.AddRow(m, pf.ThroughputMbps, aa.GainOver(pf), blu.GainOver(pf))
	}
	return t
}

// fig18 reproduces Fig 18: average RB utilization per subframe for PF,
// AA, and BLU in SISO and MU-MIMO, on Fig 17's runs. The paper reports
// conventional scheduling leaving roughly half the assigned RBs idle,
// BLU nearly doubling utilization, and AA unable to improve it.
func fig18(_ Options, res *result) *Table {
	t := &Table{
		ID:      "fig18",
		Title:   "Average RB utilization per subframe (24 UEs)",
		Columns: []string{"config", "pf_util", "aa_util", "blu_util", "blu_gain"},
		claims: []claim{
			{"pf-half-idle", "PF uses ≤ 0.5 of its RBs at every M (paper: about half idle)",
				func(t *Table) float64 { return 0.5 - slices.Max(t.col("pf_util")) }},
			{"blu-over-pf", "BLU's utilization above PF's at every M",
				func(t *Table) float64 { return above(t.diff("blu_util", "pf_util"), 0) }},
			{"siso-gain", "SISO BLU/PF utilization ≥ 1.5 (paper: ≈ 2×)",
				func(t *Table) float64 { return t.col("blu_gain")[0] - 1.5 }},
			{"aa-no-better", "AA's utilization at or below PF's at every M (paper: AA does not improve it)",
				func(t *Table) float64 { return t.diff("pf_util", "aa_util") }},
		},
	}
	for x, m := range sweepMs {
		pf, aa, blu := res.at(x, 0), res.at(x, 1), res.at(x, 2)
		label := "SISO"
		if m > 1 {
			label = fmt.Sprintf("MU-MIMO M=%d", m)
		}
		t.AddRow(label, pf.RBUtilization, aa.RBUtilization, blu.RBUtilization,
			ratio(blu.RBUtilization, pf.RBUtilization))
	}
	return t
}

package experiments

import (
	"fmt"

	"blu/internal/geom"
	"blu/internal/rng"
	"blu/internal/sim"
	"blu/internal/stats"
	"blu/internal/topology"
)

// motivationSweep is the 8-UE cell of Figs 4a and 4b under native PF:
// every hidden-terminal count at OFDMA (M = 1) and 2-user MU-MIMO, point
// x = (hidden terminals motivationHTs[x/2], M = x%2 + 1).
func motivationSweep(o Options) *sweep {
	sfs := o.scaled(4000, 400)
	return &sweep{
		points: 2 * len(motivationHTs),
		seed:   func(x, _ int) uint64 { return o.Seed + uint64(motivationHTs[x/2]) },
		cell: func(x int, seed uint64) (*sim.Cell, error) {
			return testbedCell(8, motivationHTs[x/2], x%2+1, sfs, seed)
		},
		subframes: sfs,
		arms:      []arm{pf},
	}
}

var motivationHTs = []int{0, 2, 4, 6, 8, 12}

// fig4a reproduces Fig 4a: the loss in uplink subframe (RB) utilization
// under the native PF scheduler as the number of hidden terminals
// grows, for an 8-client cell. The paper reports losses scaling with
// the hidden-terminal count and exceeding 50% even with few terminals.
func fig4a(_ Options, res *result) *Table {
	t := &Table{
		ID:      "fig4a",
		Title:   "UL spectrum (RB) utilization loss vs hidden terminals (8 UEs, PF, OFDMA)",
		Columns: []string{"hidden_terminals", "rb_utilization", "utilization_loss_pct"},
		claims: []claim{{"loss-grows", "loss ≤ 10% with no hidden terminals and ≥ 50% with 12 (paper: >50% with a few)",
			func(t *Table) float64 { loss := t.col("utilization_loss_pct"); return min(10-loss[0], last(loss)-50) }}},
	}
	for i, nHT := range motivationHTs {
		util := res.at(2*i, 0).RBUtilization
		t.AddRow(nHT, util, 100*(1-util))
	}
	return t
}

// fig4b reproduces Fig 4b: the fraction of completely occupied uplink
// subframes (every granted RB utilized) under PF for OFDMA multi-user
// access and 2-user MU-MIMO, versus hidden terminals.
func fig4b(_ Options, res *result) *Table {
	t := &Table{
		ID:      "fig4b",
		Title:   "Fraction of fully occupied subframes vs hidden terminals (8 UEs, PF)",
		Columns: []string{"hidden_terminals", "ofdma_full_frac", "mumimo2_full_frac"},
		claims: []claim{{"full-collapses", "OFDMA and MU-MIMO full-occupancy fractions ≥ 0.8 with no hidden terminals, at most half that with 12",
			func(t *Table) float64 {
				o, u := t.col("ofdma_full_frac"), t.col("mumimo2_full_frac")
				return min(o[0]-0.8, u[0]-0.8, o[0]/2-last(o), u[0]/2-last(u))
			}}},
	}
	for i, nHT := range motivationHTs {
		t.AddRow(nHT, res.at(2*i, 0).FullyUtilizedSubframes, res.at(2*i+1, 0).FullyUtilizedSubframes)
	}
	return t
}

// fig4c reproduces Fig 4c: the increase in unsensed interferers when a
// WiFi cell (preamble carrier sensing at −85 dBm) is replaced by an LTE
// cell (energy detection at −70 dBm) in an otherwise WiFi environment.
// The paper reports an increase of well over 2×.
func fig4c(opts Options) (*Table, error) {
	t := &Table{
		ID:      "fig4c",
		Title:   "Unsensed interferers per client: WiFi cell vs LTE cell",
		Columns: []string{"scenario", "wifi_mean", "lte_mean", "ratio"},
		claims: []claim{{"lte-over-2x", "an LTE cell leaves ≥ 2× the unsensed interferers a WiFi cell does (paper: well over 2×)",
			func(t *Table) float64 { return t.col("ratio")[0] - 2 }}},
	}
	analysis := topology.DefaultSensingAnalysis()
	runs := opts.scaled(40, 8)
	r := rng.New(opts.Seed)
	wifiAll := make([]float64, runs)
	lteAll := make([]float64, runs)
	err := opts.forEachTrial(runs, func(i int) error {
		// A building-scale floor so the CS (−85 dBm ≈ 100 m) and ED
		// (−70 dBm ≈ 32 m) sensing ranges both fall inside it; the
		// ratio is then governed by the sensing asymmetry, not the
		// floor boundary.
		sc, err := topology.NewScenario(topology.Config{
			Floor:       geom.Floor{Width: 220, Height: 160},
			NumUEs:      8,
			NumStations: 36,
			Clustered:   true,
		}, r.Split(fmt.Sprintf("sc%d", i)))
		if err != nil {
			return err
		}
		wifiAll[i], lteAll[i] = analysis.CompareCellTechnologies(sc)
		return nil
	})
	if err != nil {
		return nil, err
	}
	wm, lm := stats.Mean(wifiAll), stats.Mean(lteAll)
	t.AddRow(fmt.Sprintf("enterprise x%d", runs), wm, lm, ratio(lm, wm))
	return t, nil
}

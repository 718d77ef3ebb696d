package experiments

import (
	"fmt"
	"slices"

	"blu/internal/blueprint"
	"blu/internal/netsim"
	"blu/internal/stats"
)

// fig14a reproduces Fig 14(a): the CDF of BLU's topology-inference
// accuracy on testbed-scale trace topologies, for growing UE counts
// built by trace combination (Section 4.2.1). The paper reports 100%
// accuracy for ~70% of cases, >90% for 90% of cases, and medians near
// 100% regardless of UE count.
func fig14a(opts Options) (*Table, error) {
	t := &Table{
		ID:      "fig14a",
		Title:   "Topology inference accuracy CDF (testbed traces, combined topologies)",
		Columns: []string{"num_ue", "topologies", "median_acc", "p10_acc", "frac_perfect", "frac_ge_90"},
		claims:  accuracyClaims,
	}
	perGroup := opts.scaled(36, 6)
	groups := []int{8, 16, 24}
	// One task per (UE count, trial); slots row-major by group.
	accs := make([]float64, len(groups)*perGroup)
	err := opts.forEachTrial(len(accs), func(idx int) error {
		nUE, i := groups[idx/perGroup], idx%perGroup
		acc, err := inferCombinedTopology(nUE, opts.Seed+uint64(nUE*1000+i*7))
		if err != nil {
			return err
		}
		accs[idx] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}
	for g, nUE := range groups {
		if err := addAccuracyRow(t, nUE, accs[g*perGroup:(g+1)*perGroup]); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// inferCombinedTopology records base testbed traces, combines them to a
// larger topology, estimates measurements from the replayed access
// masks, infers, and returns the accuracy.
func inferCombinedTopology(nUE int, seed uint64) (float64, error) {
	replay, err := combinedCell(nUE, 1, 30000, seed, 31, 0.25, 0.55)
	if err != nil {
		return 0, err
	}
	meas := netsim.MeasureFromMasks(replay)
	inf, err := blueprint.Infer(meas, blueprint.InferOptions{Seed: seed, Tolerance: 0.03})
	if err != nil {
		return 0, err
	}
	return blueprint.Accuracy(replay.GroundTruth(), inf.Topology), nil
}

// fig14b reproduces Fig 14(b): inference accuracy over large randomized
// NS3-style topologies with 5–25 UEs and WiFi nodes.
func fig14b(opts Options) (*Table, error) {
	batch := netsim.BatchConfig{
		Topologies: opts.scaled(300, 20),
		Subframes:  opts.scaled(20000, 4000),
		Seed:       opts.Seed,
		Workers:    opts.Parallelism,
	}
	results, err := netsim.RunBatch(batch)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig14b",
		Title:   "Topology inference accuracy CDF (large randomized topologies)",
		Columns: []string{"group", "topologies", "median_acc", "p10_acc", "frac_perfect", "frac_ge_90"},
		claims:  accuracyClaims,
	}
	byNodes := make(map[int][]float64)
	var all []float64
	for _, r := range results {
		byNodes[r.NumUE] = append(byNodes[r.NumUE], r.Accuracy)
		all = append(all, r.Accuracy)
	}
	for _, nodes := range []int{5, 10, 15, 20, 25} {
		if accs := byNodes[nodes]; len(accs) > 0 {
			if err := addAccuracyRow(t, fmt.Sprintf("%d nodes", nodes), accs); err != nil {
				return nil, err
			}
		}
	}
	if err := addAccuracyRow(t, "all", all); err != nil {
		return nil, err
	}
	return t, nil
}

// accuracyClaims are Fig 14's statements, made for testbed traces (14a)
// and for large randomized topologies (14b) alike.
var accuracyClaims = []claim{
	{"median-acc", "median accuracy ≥ 0.9 in every row (paper: ≈ 1.0 whatever the size)",
		func(t *Table) float64 { return slices.Min(t.col("median_acc")) - 0.9 }},
	{"ge90-share", "≥ 90% of cases reach accuracy 0.9 in every row (paper: > 90% for 90% of cases)",
		func(t *Table) float64 { return slices.Min(t.col("frac_ge_90")) - 0.9 }},
}

// addAccuracyRow appends one accuracy-CDF row: the case count, median,
// 10th percentile, and the shares inferred perfectly and at ≥ 0.9.
func addAccuracyRow(t *Table, label any, accs []float64) error {
	med, err := stats.Median(accs)
	if err != nil {
		return err
	}
	p10, err := stats.Percentile(accs, 10)
	if err != nil {
		return err
	}
	t.AddRow(label, len(accs), med, p10, frac(accs, 1.0), frac(accs, 0.9))
	return nil
}

// frac returns the fraction of xs at or above threshold.
func frac(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x >= threshold-1e-12 {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

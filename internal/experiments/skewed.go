package experiments

import (
	"blu/internal/blueprint"
	"blu/internal/rng"
	"blu/internal/stats"
)

// skewed reproduces the Section 3.5 "Skewed Topologies" discussion:
// when hidden terminals heavily outnumber clients, several topologies
// satisfy the observed pair-wise distributions and inference accuracy
// degrades; adding third-order (triplet) access distributions restores
// identifiability. Ground truths here are synthetic skewed blueprints
// (h up to ~2.5N overlapping terminals) measured exactly, isolating the
// identifiability question from sampling noise.
func skewed(opts Options) (*Table, error) {
	t := &Table{
		ID:      "skewed",
		Title:   "Skewed topologies: pair-wise-only vs +triplet inference accuracy",
		Columns: []string{"ht_per_client", "cases", "pair_mean_acc", "triple_mean_acc", "pair_median", "triple_median"},
		claims: []claim{
			{"pairs-degrade", "pair-wise mean accuracy lower at h/N = 2.5 than at h/N = 1",
				func(t *Table) float64 { a := t.col("pair_mean_acc"); return above(a[0], last(a)) }},
			{"triples-recover", "with triplets, mean accuracy ≥ 0.95 and ≥ pair-wise at h/N = 2.5",
				func(t *Table) float64 {
					p, t3 := last(t.col("pair_mean_acc")), last(t.col("triple_mean_acc"))
					return min(t3-0.95, t3-p)
				}},
		},
	}
	cases := opts.scaled(20, 6)
	r := rng.New(opts.Seed)
	ratios := []float64{1, 2, 2.5}
	// One task per (ratio, case); each draws its truth from its own
	// (Seed, trial)-derived stream, so cases are genuinely independent
	// draws and any worker computes the same trial.
	pairAcc := make([]float64, len(ratios)*cases)
	tripleAcc := make([]float64, len(ratios)*cases)
	err := opts.forEachTrial(len(pairAcc), func(idx int) error {
		ratio, c := ratios[idx/cases], idx%cases
		const n = 6
		h := int(ratio * n)
		truth := skewedTruth(r.SplitIndex("truth", idx), n, h)
		meas := truth.Measure()

		inf, err := blueprint.Infer(meas, blueprint.InferOptions{Seed: uint64(c)})
		if err != nil {
			return err
		}
		pairAcc[idx] = blueprint.Accuracy(truth, inf.Topology)

		// Add every exact triple distribution and re-infer.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				for k := j + 1; k < n; k++ {
					meas.SetTriple(i, j, k, truth.ClearProb(blueprint.NewClientSet(i, j, k)))
				}
			}
		}
		inf3, err := blueprint.Infer(meas, blueprint.InferOptions{Seed: uint64(c)})
		if err != nil {
			return err
		}
		tripleAcc[idx] = blueprint.Accuracy(truth, inf3.Topology)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ri, ratio := range ratios {
		pa := pairAcc[ri*cases : (ri+1)*cases]
		ta := tripleAcc[ri*cases : (ri+1)*cases]
		pm, err := stats.Median(pa)
		if err != nil {
			return nil, err
		}
		tm, err := stats.Median(ta)
		if err != nil {
			return nil, err
		}
		t.AddRow(ratio, cases, stats.Mean(pa), stats.Mean(ta), pm, tm)
	}
	return t, nil
}

// skewedTruth draws a dense, overlapping blueprint: h terminals over n
// clients with degree biased toward 2–3, many sharing clients.
func skewedTruth(r *rng.Source, n, h int) *blueprint.Topology {
	truth := &blueprint.Topology{N: n}
	for k := 0; k < h; k++ {
		var set blueprint.ClientSet
		deg := 1 + r.Intn(3)
		for set.Count() < deg {
			set = set.Add(r.Intn(n))
		}
		truth.HTs = append(truth.HTs, blueprint.HiddenTerminal{
			Q:       0.1 + 0.4*r.Float64(),
			Clients: set,
		})
	}
	return truth.Normalize()
}

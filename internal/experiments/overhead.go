package experiments

import (
	"math"
	"slices"
	"time"

	"blu/internal/access"
	"blu/internal/blueprint"
	"blu/internal/mcmc"
	"blu/internal/rng"
	"blu/internal/stats"
)

// overhead reproduces the Section 3.3/3.7 measurement-overhead
// analysis: Algorithm 1's schedule length t_max against the pair-wise
// lower bound F_min, and the exponential cost of measuring k-client
// joint distributions directly that BLU avoids. The paper's anchor
// numbers: t_max ≈ 340 subframes for N=20, T=50, K=8, versus ≈1384·T
// subframes for all 6-client joints in the same cell.
func overhead(opts Options) (*Table, error) {
	t := &Table{
		ID:      "overhead",
		Title:   "Measurement overhead: Algorithm 1 vs bounds (T samples per tuple)",
		Columns: []string{"n", "k", "t", "f_min", "alg1_tmax", "ratio", "joint6_subframes"},
		claims: []claim{
			{"alg1-near-fmin", "1 ≤ t_max/F_min ≤ 2.5 in every row (paper: t_max ≈ 340 = F_min at N=20)",
				func(t *Table) float64 { r := t.col("ratio"); return min(slices.Min(r)-1, 2.5-slices.Max(r)) }},
			{"joint-explodes", "6-client joints cost ≥ 10× F_min wherever N > K+2 (paper: ≈ 1384·T at N=20)",
				func(t *Table) float64 {
					n, k, fmin, joint6 := t.col("n"), t.col("k"), t.col("f_min"), t.col("joint6_subframes")
					return t.every(func(r int) float64 {
						if n[r] <= k[r]+2 {
							return math.Inf(1)
						}
						return joint6[r]/fmin[r] - 10
					})
				}},
		},
	}
	cases := []struct{ n, k, t int }{
		{8, 8, 50},
		{12, 8, 50},
		{20, 8, 50},
		{24, 10, 50},
	}
	for _, c := range cases {
		plan, err := access.BuildPlan(access.PlanOptions{N: c.n, K: c.k, T: c.t})
		if err != nil {
			return nil, err
		}
		fmin := access.FMin(c.n, c.k, c.t)
		joint6 := access.JointOverhead(c.n, c.k, 6, c.t)
		t.AddRow(c.n, c.k, c.t, fmin, plan.TMax(), ratio(float64(plan.TMax()), float64(fmin)), joint6)
	}
	return t, nil
}

// ablation compares deterministic constraint-repair inference with the
// MCMC baseline on random ground truths: accuracy and wall time.
func ablation(opts Options) (*Table, error) {
	t := &Table{
		ID:      "ablation",
		Title:   "Inference ablation: deterministic constraint-repair vs MCMC",
		Columns: []string{"method", "mean_acc", "median_acc", "mean_ms"},
		claims: []claim{{"repair-vs-mcmc", "constraint repair's mean accuracy within 0.1 of MCMC's, in no more time",
			func(t *Table) float64 {
				a, ms := t.col("mean_acc"), t.col("mean_ms")
				return min(a[0]-a[1]+0.1, 1-ms[0]/ms[1])
			}}},
	}
	cases := opts.scaled(24, 6)
	r := rng.New(opts.Seed)
	detAcc := make([]float64, cases)
	mcAcc := make([]float64, cases)
	detMS := make([]float64, cases)
	mcMS := make([]float64, cases)
	err := opts.forEachTrial(cases, func(c int) error {
		// Each case draws its truth from its own (Seed, case) stream.
		rc := r.SplitIndex("case", c)
		truth := randomTruth(rc, 6+rc.Intn(5), 2+rc.Intn(4))
		meas := truth.Measure()

		start := time.Now()
		det, err := blueprint.Infer(meas, blueprint.InferOptions{Seed: uint64(c)})
		if err != nil {
			return err
		}
		detMS[c] = float64(time.Since(start).Microseconds()) / 1000
		detAcc[c] = blueprint.Accuracy(truth, det.Topology)

		start = time.Now()
		mc, err := mcmc.Infer(meas, mcmc.Options{Seed: uint64(c), Iterations: 20000})
		if err != nil {
			return err
		}
		mcMS[c] = float64(time.Since(start).Microseconds()) / 1000
		mcAcc[c] = blueprint.Accuracy(truth, mc.Topology)
		return nil
	})
	if err != nil {
		return nil, err
	}
	detMed, err := stats.Median(detAcc)
	if err != nil {
		return nil, err
	}
	mcMed, err := stats.Median(mcAcc)
	if err != nil {
		return nil, err
	}
	t.AddRow("constraint-repair", stats.Mean(detAcc), detMed, stats.Mean(detMS))
	t.AddRow("mcmc (20k iters)", stats.Mean(mcAcc), mcMed, stats.Mean(mcMS))
	return t, nil
}

// randomTruth draws a random ground-truth blueprint.
func randomTruth(r *rng.Source, n, h int) *blueprint.Topology {
	truth := &blueprint.Topology{N: n}
	for k := 0; k < h; k++ {
		var set blueprint.ClientSet
		for i := 0; i < n; i++ {
			if r.Bool(0.35) {
				set = set.Add(i)
			}
		}
		if set.Empty() {
			set = set.Add(r.Intn(n))
		}
		truth.HTs = append(truth.HTs, blueprint.HiddenTerminal{
			Q:       0.1 + 0.5*r.Float64(),
			Clients: set,
		})
	}
	return truth.Normalize()
}

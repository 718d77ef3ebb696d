package experiments

import (
	"slices"

	"blu/internal/blueprint"
	"blu/internal/rng"
	"blu/internal/stats"
)

// fractional stress-tests the Section 3.5 "Interference Impact"
// assumption: BLU's blueprint models a hidden terminal's effect on a
// client as binary {0,1}, while fading can make the real effect
// fractional — a client senses a marginal terminal only some of the
// time. We generate ground truths whose edges block with probability
// w ∈ [1−spread, 1], sample access outcomes under that fractional
// model, and measure how inference accuracy and the induced
// access-probability error degrade as the spread grows. The paper
// argues the resulting sub-optimality is confined to the affected
// clients; the access-probability error staying small is that claim.
func fractional(opts Options) (*Table, error) {
	t := &Table{
		ID:      "fractional",
		Title:   "Binary-impact assumption under fractional (fading) interference",
		Columns: []string{"edge_spread", "cases", "mean_struct_acc", "mean_p_error"},
		claims: []claim{
			{"binary-exact", "structure accuracy ≥ 0.99 with binary edges",
				func(t *Table) float64 { return t.col("mean_struct_acc")[0] - 0.99 }},
			{"p-error-small", "blueprint-induced p(i) error ≤ 0.08 in every row",
				func(t *Table) float64 { return 0.08 - slices.Max(t.col("mean_p_error")) }},
		},
	}
	cases := opts.scaled(16, 6)
	const (
		n       = 6
		h       = 4
		samples = 30000
	)
	r := rng.New(opts.Seed)
	spreads := []float64{0, 0.2, 0.4}
	// One task per (spread, case); each case owns a (Seed, trial) rng
	// stream so trials are independent draws.
	accsAll := make([]float64, len(spreads)*cases)
	perrsAll := make([]float64, len(spreads)*cases)
	err := opts.forEachTrial(len(accsAll), func(idx int) error {
		spread, c := spreads[idx/cases], idx%cases
		rr := r.SplitIndex("case", idx)
		truth := randomTruth(rr.Split("topo"), n, h)
		// Per-edge blocking weights in [1−spread, 1].
		weights := make(map[[2]int]float64)
		for k, ht := range truth.HTs {
			ht.Clients.ForEach(func(i int) {
				weights[[2]int{k, i}] = 1 - spread*rr.Float64()
			})
		}
		// Sample access outcomes under the fractional model and the
		// true per-client access rates alongside.
		countI := make([]int, n)
		countIJ := make([][]int, n)
		for i := range countIJ {
			countIJ[i] = make([]int, n)
		}
		sampler := rr.Split("samples")
		for s := 0; s < samples; s++ {
			var blocked blueprint.ClientSet
			for k, ht := range truth.HTs {
				if !sampler.Bool(ht.Q) {
					continue
				}
				ht.Clients.ForEach(func(i int) {
					if sampler.Bool(weights[[2]int{k, i}]) {
						blocked = blocked.Add(i)
					}
				})
			}
			for i := 0; i < n; i++ {
				if blocked.Has(i) {
					continue
				}
				countI[i]++
				for j := i + 1; j < n; j++ {
					if !blocked.Has(j) {
						countIJ[i][j]++
					}
				}
			}
		}
		m := blueprint.NewMeasurements(n)
		for i := 0; i < n; i++ {
			m.P[i] = float64(countI[i]) / samples
			for j := i + 1; j < n; j++ {
				m.SetPair(i, j, float64(countIJ[i][j])/samples)
			}
		}
		m.Clamp(1e-4)

		inf, err := blueprint.Infer(m, blueprint.InferOptions{Seed: uint64(c), Tolerance: 0.03})
		if err != nil {
			return err
		}
		accsAll[idx] = blueprint.Accuracy(truth, inf.Topology)
		// What the scheduler actually consumes: the blueprint's
		// induced access probabilities vs the observed ones.
		var perr float64
		for i := 0; i < n; i++ {
			d := inf.Topology.AccessProb(i) - m.P[i]
			if d < 0 {
				d = -d
			}
			if d > perr {
				perr = d
			}
		}
		perrsAll[idx] = perr
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si, spread := range spreads {
		accs := accsAll[si*cases : (si+1)*cases]
		perrs := perrsAll[si*cases : (si+1)*cases]
		t.AddRow(spread, cases, stats.Mean(accs), stats.Mean(perrs))
	}
	return t, nil
}

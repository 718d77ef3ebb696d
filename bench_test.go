// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per sweep, run at reduced scale so the
// suite stays tractable — use cmd/blusim for paper-scale runs), plus
// micro-benchmarks of the core algorithms.
//
// Run with:
//
//	go test -bench=. -benchmem
package blu_test

import (
	"fmt"
	"testing"

	"blu"
	"blu/internal/blueprint"
	"blu/internal/experiments"
	"blu/internal/joint"
	"blu/internal/mcmc"
	"blu/internal/rng"
	"blu/internal/topology"
)

// benchFigure runs one sweep per benchmark iteration through
// experiments.Run, rendering every table that reads it (or one
// hand-written experiment's table).
func benchFigure(b *testing.B, scale float64, ids ...string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := experiments.Run(experiments.Options{Seed: uint64(i + 1), Scale: scale}, ids, func(t *experiments.Table) error {
			if len(t.Rows) == 0 {
				return fmt.Errorf("%s: empty table", t.ID)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig04a(b *testing.B) { benchFigure(b, 0.1, "fig4a", "fig4b") }
func BenchmarkFig04c(b *testing.B) { benchFigure(b, 0.1, "fig4c") }
func BenchmarkFig10(b *testing.B)  { benchFigure(b, 0.05, "fig10", "fig12") }
func BenchmarkFig11(b *testing.B)  { benchFigure(b, 0.05, "fig11", "fig13") }
func BenchmarkFig14a(b *testing.B) { benchFigure(b, 0.05, "fig14a") }
func BenchmarkFig14b(b *testing.B) { benchFigure(b, 0.05, "fig14b") }
func BenchmarkFig15(b *testing.B)  { benchFigure(b, 0.05, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchFigure(b, 0.05, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchFigure(b, 0.05, "fig17", "fig18") }

func BenchmarkMeasurementOverhead(b *testing.B) { benchFigure(b, 1, "overhead") }
func BenchmarkAblationInference(b *testing.B)   { benchFigure(b, 0.15, "ablation") }
func BenchmarkDLAccessAware(b *testing.B)       { benchFigure(b, 0.1, "dl") }
func BenchmarkSkewedTriples(b *testing.B)       { benchFigure(b, 0.15, "skewed") }
func BenchmarkFairness(b *testing.B)            { benchFigure(b, 0.1, "fairness") }
func BenchmarkFractionalImpact(b *testing.B)    { benchFigure(b, 0.2, "fractional") }

// inferInstances draws a pool of enterprise-floor deployments (n UEs,
// 3n/2 WiFi stations, airtime ~ U[0.1,0.5]) and returns each one's
// ground-truth blueprint with the exact measurements it induces. The
// solver can pin most such instances down; a dense random client-set
// topology it never can, and a benchmark over those times the
// iteration budget, not a solve. A pool, not one draw, because a
// single deployment may have no hidden terminal at all or be one of the
// hard ones; iteration i solves instance i mod the pool size.
func inferInstances(b *testing.B, n int) (truths []*blueprint.Topology, meas []*blueprint.Measurements) {
	b.Helper()
	stations := 3 * n / 2
	for seed := uint64(1); seed <= 8; seed++ {
		sc, err := topology.NewScenario(topology.Config{NumUEs: n, NumStations: stations}, rng.New(seed))
		if err != nil {
			b.Fatal(err)
		}
		ra := rng.New(seed).Split("airtime")
		airtime := make([]float64, stations)
		for k := range airtime {
			airtime[k] = 0.1 + 0.4*ra.Float64()
		}
		truth := sc.GroundTruth(airtime)
		truths = append(truths, truth)
		meas = append(meas, truth.Measure())
	}
	return truths, meas
}

// BenchmarkInfer measures the deterministic topology inference on exact
// measurements as the cell size grows, across parallelism settings.
// P=1 is the sequential baseline, P=0 uses every core; the determinism
// tests guarantee all settings return the identical topology, so the
// ratio between the P lines is pure wall-clock speedup. The converged
// metric is the share of timed solves that ended within tolerance.
func BenchmarkInfer(b *testing.B) {
	for _, n := range []int{8, 16, 24} {
		_, meas := inferInstances(b, n)
		for _, par := range []int{1, 4, 0} {
			label := fmt.Sprintf("N=%d/P=%d", n, par)
			if par == 0 {
				label = fmt.Sprintf("N=%d/P=max", n)
			}
			b.Run(label, func(b *testing.B) {
				b.ReportAllocs()
				converged := 0
				for i := 0; i < b.N; i++ {
					res, err := blueprint.Infer(meas[i%len(meas)], blueprint.InferOptions{Seed: uint64(i), Parallelism: par})
					if err != nil {
						b.Fatal(err)
					}
					if res.Converged {
						converged++
					}
				}
				b.ReportMetric(float64(converged)/float64(b.N), "converged")
			})
		}
	}
}

// BenchmarkInferMCMC is the Bayesian baseline on the same instances
// (the Section 3.4 ablation). It is a comparison point, not a serving
// path, so it carries no parallelism columns. MCMC has no convergence
// verdict; the accuracy metric is the mean agreement of its MAP
// topology with the truth.
func BenchmarkInferMCMC(b *testing.B) {
	for _, n := range []int{8, 16} {
		truths, meas := inferInstances(b, n)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var accuracy float64
			for i := 0; i < b.N; i++ {
				res, err := mcmc.Infer(meas[i%len(meas)], mcmc.Options{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				accuracy += blueprint.Accuracy(truths[i%len(truths)], res.Topology)
			}
			b.ReportMetric(accuracy/float64(b.N), "accuracy")
		})
	}
}

// BenchmarkJointProb measures one higher-order joint-distribution query
// via recursive conditioning (Section 3.6), uncached and cached.
func BenchmarkJointProb(b *testing.B) {
	topo := randomTopo(24, 30, 3)
	clear := blueprint.NewClientSet(0, 5, 9)
	blocked := blueprint.NewClientSet(2, 7, 11, 13)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			calc := joint.NewCalculator(topo)
			_ = calc.Prob(clear, blocked)
		}
	})
	b.Run("warm", func(b *testing.B) {
		calc := joint.NewCalculator(topo)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = calc.Prob(clear, blocked)
		}
	})
}

// BenchmarkSpeculativeSchedule measures one full subframe scheduling
// decision of BLU's speculative scheduler at the Fig 15 working point.
func BenchmarkSpeculativeSchedule(b *testing.B) {
	for _, m := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			sc, err := blu.NewTestbedScenario(16, 24, 5)
			if err != nil {
				b.Fatal(err)
			}
			cell, err := blu.NewCell(blu.CellConfig{
				Scenario:  sc,
				M:         m,
				Subframes: 100,
				Seed:      9,
			})
			if err != nil {
				b.Fatal(err)
			}
			spec, err := blu.NewSpeculative(cell.Env(), blu.NewCalculator(cell.GroundTruth()))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = spec.Schedule(i % 100)
			}
		})
	}
}

// BenchmarkSchedule measures one full subframe scheduling decision for
// each of the paper's three schedulers on the same Fig-15 working-point
// cell. With -benchmem it exposes the steady-state allocation profile
// of the kernels (scratch reuse, flat caches, per-call arena).
func BenchmarkSchedule(b *testing.B) {
	const subframes = 100
	sc, err := blu.NewTestbedScenario(16, 24, 5)
	if err != nil {
		b.Fatal(err)
	}
	cell, err := blu.NewCell(blu.CellConfig{
		Scenario:  sc,
		M:         2,
		Subframes: subframes,
		Seed:      9,
	})
	if err != nil {
		b.Fatal(err)
	}
	env := cell.Env()
	calc := blu.NewCalculator(cell.GroundTruth())
	pf, err := blu.NewPF(env)
	if err != nil {
		b.Fatal(err)
	}
	aa, err := blu.NewAccessAware(env, calc)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := blu.NewSpeculative(env, calc)
	if err != nil {
		b.Fatal(err)
	}
	for _, sc := range []struct {
		name string
		s    blu.Scheduler
	}{
		{"PF", pf},
		{"AA", aa},
		{"BLU", spec},
	} {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = sc.s.Schedule(i % subframes)
			}
		})
	}
}

// BenchmarkMeasurementPlan measures Algorithm 1 planning for the
// paper's N=20, K=8, T=50 anchor case.
func BenchmarkMeasurementPlan(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan, err := blu.BuildMeasurementPlan(blu.MeasurementPlanOptions{N: 20, K: 8, T: 50})
		if err != nil {
			b.Fatal(err)
		}
		if plan.TMax() == 0 {
			b.Fatal("empty plan")
		}
	}
}

// BenchmarkCellConstruction measures building a full simulated cell
// (WiFi activity + channel + access masks) for a 10-second horizon.
func BenchmarkCellConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc, err := blu.NewTestbedScenario(8, 12, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := blu.NewCell(blu.CellConfig{
			Scenario:  sc,
			Subframes: 10000,
			Seed:      uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func randomTopo(n, h int, seed uint64) *blueprint.Topology {
	r := rng.New(seed)
	topo := &blueprint.Topology{N: n}
	for k := 0; k < h; k++ {
		var set blueprint.ClientSet
		for i := 0; i < n; i++ {
			if r.Bool(0.25) {
				set = set.Add(i)
			}
		}
		if set.Empty() {
			set = set.Add(r.Intn(n))
		}
		topo.HTs = append(topo.HTs, blueprint.HiddenTerminal{
			Q:       0.1 + 0.4*r.Float64(),
			Clients: set,
		})
	}
	return topo.Normalize()
}

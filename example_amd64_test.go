//go:build amd64

// These examples print numbers the simulator and the solver compute in
// floating point. Their outputs are pinned on amd64, as the scheduler's
// float goldens are; other architectures may fuse multiply-adds and
// round differently.

package blu_test

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"blu"
)

// Example is the end-to-end tour: simulate an unlicensed-band LTE
// uplink cell with WiFi hidden terminals, blueprint the interference
// from pair-wise access measurements, and compare the native
// proportional-fair scheduler, the access-aware baseline and BLU's
// speculative scheduler.
func Example() {
	// An 8-UE cell ringed by 12 WiFi stations that are hidden from the
	// eNB but silence nearby UEs' CCAs (the paper's Fig 1 setting).
	sc, err := blu.NewTestbedScenario(8, 12, 42)
	if err != nil {
		fmt.Println(err)
		return
	}
	cell, err := blu.NewCell(blu.CellConfig{Scenario: sc, M: 1, Subframes: 6000, Seed: 7})
	if err != nil {
		fmt.Println(err)
		return
	}

	// Blueprint the interference from pair-wise access distributions.
	inf, err := blu.Infer(blu.EstimateMeasurements(cell), blu.InferOptions{Seed: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("ground truth:", cell.GroundTruth())
	fmt.Println("blueprint:   ", inf.Topology)
	fmt.Printf("inference accuracy: %.0f%%\n", 100*blu.InferenceAccuracy(cell.GroundTruth(), inf.Topology))

	// PF (Eqn 1), access-aware (Eqn 5) and speculative (Eqns 3-4)
	// scheduling over the same cell; the latter two use the joint
	// access distribution derived from the blueprint.
	env, calc := cell.Env(), blu.NewCalculator(inf.Topology)
	pf, err := blu.NewPF(env)
	if err != nil {
		fmt.Println(err)
		return
	}
	aa, err := blu.NewAccessAware(env, calc)
	if err != nil {
		fmt.Println(err)
		return
	}
	spec, err := blu.NewSpeculative(env, calc)
	if err != nil {
		fmt.Println(err)
		return
	}
	var runs []*blu.Metrics
	for _, s := range []blu.Scheduler{pf, aa, spec} {
		m := blu.RunScheduler(cell, s, 0, cell.Subframes())
		fmt.Printf("%-12s %6.2f Mbps  RB utilization %3.0f%%\n", m.Scheduler, m.ThroughputMbps, 100*m.RBUtilization)
		runs = append(runs, m)
	}
	fmt.Printf("BLU/PF: %.2fx\n", runs[2].GainOver(runs[0]))
	// Output:
	// ground truth: N=8 h=10 [q=0.35→{1}] [q=0.35→{2}] [q=0.35→{3}] [q=0.35→{1,2,3}] [q=0.35→{2,3,4}] [q=0.35→{3,4,5}] [q=0.35→{5,6}] [q=0.35→{4,5,6}] [q=0.35→{0,7}] [q=0.35→{0,1,7}]
	// blueprint:    N=8 h=15 [q=0.33→{1}] [q=0.34→{2}] [q=0.07→{1,2}] [q=0.40→{3}] [q=0.04→{2,3}] [q=0.32→{1,2,3}] [q=0.06→{3,4}] [q=0.37→{2,3,4}] [q=0.09→{4,5}] [q=0.30→{3,4,5}] [q=0.34→{5,6}] [q=0.06→{1,5,6}] [q=0.36→{4,5,6}] [q=0.38→{0,7}] [q=0.37→{0,1,7}]
	// inference accuracy: 100%
	// PF            10.71 Mbps  RB utilization  27%
	// AA            11.58 Mbps  RB utilization  29%
	// BLU           16.70 Mbps  RB utilization  42%
	// BLU/PF: 1.56x
}

// ExampleNewSystem runs the full BLU controller (Fig 9) on a 12-UE,
// 18-station deployment: an Algorithm-1 measurement phase, then
// speculative phases of L subframes, re-blueprinting between them.
// The per-phase inference accuracy is printed as it comes: the
// controller's estimated blueprints are far from the truth here, yet
// its speculative phases still beat PF.
func ExampleNewSystem() {
	const subframes = 12000
	sc, err := blu.NewTestbedScenario(12, 18, 2026)
	if err != nil {
		fmt.Println(err)
		return
	}
	cell, err := blu.NewCell(blu.CellConfig{Scenario: sc, M: 1, Subframes: subframes, Seed: 11})
	if err != nil {
		fmt.Println(err)
		return
	}
	pf, err := blu.NewPF(cell.Env())
	if err != nil {
		fmt.Println(err)
		return
	}
	pfM := blu.RunScheduler(cell, pf, 0, subframes)

	sys, err := blu.NewSystem(blu.SystemConfig{T: 50, L: 4000}, cell)
	if err != nil {
		fmt.Println(err)
		return
	}
	rep, err := sys.Run()
	if err != nil {
		fmt.Println(err)
		return
	}
	for i, ph := range rep.Phases {
		if ph.Inferred == nil {
			fmt.Printf("%d. %-11s %5d subframes\n", i+1, ph.Kind, ph.Subframes)
			continue
		}
		fmt.Printf("%d. %-11s %5d subframes  accuracy %3.0f%%  h=%d\n",
			i+1, ph.Kind, ph.Subframes, 100*ph.InferenceAccuracy, len(ph.Inferred.HTs))
	}
	fmt.Printf("measurement overhead: %d subframes (F_min = %d)\n",
		rep.MeasurementSubframes, blu.MeasurementLowerBound(12, 8, 50))
	fmt.Printf("final blueprint h=%d, ground truth h=%d\n", len(rep.FinalTopology.HTs), len(cell.GroundTruth().HTs))
	fmt.Printf("PF %.2f Mbps, BLU %.2f Mbps: %.2fx\n",
		pfM.ThroughputMbps, rep.Speculative.ThroughputMbps, rep.Speculative.GainOver(pfM))
	// Output:
	// 1. measurement   121 subframes
	// 2. speculative  4000 subframes  accuracy  14%  h=14
	// 3. measurement   121 subframes
	// 4. speculative  4000 subframes  accuracy  43%  h=19
	// 5. speculative  3758 subframes  accuracy  29%  h=17
	// measurement overhead: 242 subframes (F_min = 118)
	// final blueprint h=17, ground truth h=14
	// PF 3.33 Mbps, BLU 8.24 Mbps: 2.47x
}

// Example_channelSelection is the paper's §5 channel-selection use:
// blueprint the hidden terminals on each candidate unlicensed channel
// and score it by the predicted probability that a grant is usable
// when BLU over-schedules the client with its best complementary
// partner. BLU then runs on every channel, so the predicted ranking can
// be checked against the simulated one.
func Example_channelSelection() {
	const numUE = 8
	channels := []struct {
		name string
		seed uint64
		hts  int
	}{
		{"ch 36", 301, 6},
		{"ch 40", 302, 14},
		{"ch 44", 303, 10},
		{"ch 48", 304, 20},
	}
	var predicted, util, mbps []float64
	for _, ch := range channels {
		sc, err := blu.NewTestbedScenario(numUE, ch.hts, ch.seed)
		if err != nil {
			fmt.Println(err)
			return
		}
		cell, err := blu.NewCell(blu.CellConfig{Scenario: sc, Subframes: 10000, Seed: ch.seed})
		if err != nil {
			fmt.Println(err)
			return
		}
		inf, err := blu.Infer(blu.EstimateMeasurements(cell), blu.InferOptions{Seed: ch.seed})
		if err != nil {
			fmt.Println(err)
			return
		}
		// A grant is wasted only when both clients of an over-scheduled
		// pair are blocked, so client i's best usability is the best
		// 1 − P(i and a partner both blocked), or p(i) alone.
		calc := blu.NewCalculator(inf.Topology)
		var score float64
		for i := range numUE {
			best := inf.Topology.AccessProb(i)
			for j := range numUE {
				if j != i {
					best = max(best, 1-calc.Prob(0, blu.NewClientSet(i, j)))
				}
			}
			score += best / numUE
		}
		spec, err := blu.NewSpeculative(cell.Env(), calc)
		if err != nil {
			fmt.Println(err)
			return
		}
		// BLU runs the first 2 s of the channel's 10 s trace.
		m := blu.RunScheduler(cell, spec, 0, 2000)
		fmt.Printf("%s  %2d HTs  predicted usability %.2f  BLU RB utilization %.2f  %5.2f Mbps\n",
			ch.name, ch.hts, score, m.RBUtilization, m.ThroughputMbps)
		predicted = append(predicted, score)
		util = append(util, m.RBUtilization)
		mbps = append(mbps, m.ThroughputMbps)
	}
	// rank lists the channels best first by score.
	rank := func(score []float64) string {
		order := []int{0, 1, 2, 3}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(score[b], score[a]) })
		var names []string
		for _, i := range order {
			names = append(names, channels[i].name)
		}
		return strings.Join(names, ", ")
	}
	fmt.Println("ranked by prediction:     ", rank(predicted))
	fmt.Println("ranked by RB utilization: ", rank(util))
	fmt.Println("ranked by throughput:     ", rank(mbps))
	fmt.Println("prediction matches utilization:", rank(predicted) == rank(util))
	fmt.Println("prediction matches throughput: ", rank(predicted) == rank(mbps))
	// Output:
	// ch 36   6 HTs  predicted usability 1.00  BLU RB utilization 0.63  25.14 Mbps
	// ch 40  14 HTs  predicted usability 0.56  BLU RB utilization 0.38  15.11 Mbps
	// ch 44  10 HTs  predicted usability 1.00  BLU RB utilization 0.53   8.54 Mbps
	// ch 48  20 HTs  predicted usability 0.54  BLU RB utilization 0.29   4.83 Mbps
	// ranked by prediction:      ch 36, ch 44, ch 40, ch 48
	// ranked by RB utilization:  ch 36, ch 44, ch 40, ch 48
	// ranked by throughput:      ch 36, ch 40, ch 44, ch 48
	// prediction matches utilization: true
	// prediction matches throughput:  false
}

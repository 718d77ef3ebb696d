package blu_test

import (
	"fmt"

	"blu"
)

// ExampleInfer demonstrates blue-printing an interference topology from
// exact pair-wise access measurements.
func ExampleInfer() {
	// Ground truth: terminal A silences clients 0 and 1 (q = 0.4),
	// terminal B silences client 2 (q = 0.25).
	truth := &blu.Topology{N: 3, HTs: []blu.HiddenTerminal{
		{Q: 0.4, Clients: blu.NewClientSet(0, 1)},
		{Q: 0.25, Clients: blu.NewClientSet(2)},
	}}
	res, err := blu.Infer(truth.Measure(), blu.InferOptions{Seed: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.Topology)
	fmt.Printf("accuracy: %.0f%%\n", 100*blu.InferenceAccuracy(truth, res.Topology))
	// Output:
	// N=3 h=2 [q=0.40→{0,1}] [q=0.25→{2}]
	// accuracy: 100%
}

// ExampleCalculator_Prob derives a higher-order joint access
// distribution from a blueprint by recursive topology conditioning.
func ExampleCalculator_Prob() {
	topo := &blu.Topology{N: 3, HTs: []blu.HiddenTerminal{
		{Q: 0.5, Clients: blu.NewClientSet(0, 1)},
		{Q: 0.5, Clients: blu.NewClientSet(2)},
	}}
	calc := blu.NewCalculator(topo)
	// P(client 0 transmits while clients 1 and 2 are blocked): clients
	// 0 and 1 share their only terminal, so this is impossible.
	fmt.Printf("%.2f\n", calc.Prob(blu.NewClientSet(0), blu.NewClientSet(1, 2)))
	// P(clients 0 and 1 transmit while 2 is blocked) = 0.5 · 0.5.
	fmt.Printf("%.2f\n", calc.Prob(blu.NewClientSet(0, 1), blu.NewClientSet(2)))
	// Output:
	// 0.00
	// 0.25
}

// ExampleMeasurementLowerBound reproduces the paper's Section 3.3
// overhead arithmetic for a 20-client cell.
func ExampleMeasurementLowerBound() {
	fmt.Println(blu.MeasurementLowerBound(20, 8, 50))
	// Output:
	// 340
}

// ExampleBuildMeasurementPlan schedules Algorithm-1 measurement
// subframes and shows the plan stays near the pair-wise lower bound.
func ExampleBuildMeasurementPlan() {
	plan, err := blu.BuildMeasurementPlan(blu.MeasurementPlanOptions{N: 8, K: 4, T: 10})
	if err != nil {
		fmt.Println(err)
		return
	}
	minPairs := plan.PairCounts[0][1]
	for i, row := range plan.PairCounts {
		for _, c := range row[i+1:] {
			minPairs = min(minPairs, c)
		}
	}
	fmt.Printf("covers every pair at least %d times\n", minPairs)
	fmt.Printf("bound: %d subframes\n", blu.MeasurementLowerBound(8, 4, 10))
	fmt.Printf("within 2x of bound: %v\n", plan.TMax() <= 2*blu.MeasurementLowerBound(8, 4, 10))
	// Output:
	// covers every pair at least 10 times
	// bound: 47 subframes
	// within 2x of bound: true
}

// ExampleNewEstimator turns the access outcomes of an Algorithm-1
// measurement plan into the measurements inference takes. A hidden
// terminal that is busy in every third subframe silences clients 0
// and 1 together, so they are blocked jointly: p(0,1) = p(0) = p(1).
func ExampleNewEstimator() {
	const n = 6
	plan, err := blu.BuildMeasurementPlan(blu.MeasurementPlanOptions{N: n, K: 3, T: 6})
	if err != nil {
		fmt.Println(err)
		return
	}
	est := blu.NewEstimator(n)
	for sf, clients := range plan.Subframes {
		accessed := blu.NewClientSet(clients...)
		if sf%3 == 0 {
			accessed = accessed.Remove(0).Remove(1)
		}
		est.Record(clients, accessed)
	}
	m := est.Measurements()
	fmt.Printf("%d subframes (F_min = %d)\n", plan.TMax(), blu.MeasurementLowerBound(n, 3, 6))
	fmt.Printf("p(0) = %.2f, p(1) = %.2f, p(0,1) = %.2f\n", m.P[0], m.P[1], m.Pair(0, 1))
	fmt.Printf("p(2) = %.2f, p(0,2) = %.2f\n", m.P[2], m.Pair(0, 2))
	// Output:
	// 30 subframes (F_min = 30)
	// p(0) = 0.67, p(1) = 0.67, p(0,1) = 0.67
	// p(2) = 1.00, p(0,2) = 0.67
}

// ExampleCombineTraceUEs emulates larger networks from recorded traces
// (paper Section 4.2): two 4-UE recordings become one 8-UE cell, and a
// third recording's WiFi stations are overlaid on a fourth's UEs.
func ExampleCombineTraceUEs() {
	var traces []*blu.Trace
	for seed := uint64(1); seed <= 4; seed++ {
		sc, err := blu.NewTestbedScenario(4, 6, seed)
		if err != nil {
			fmt.Println(err)
			return
		}
		cell, err := blu.NewCell(blu.CellConfig{Scenario: sc, Subframes: 2000, Seed: seed})
		if err != nil {
			fmt.Println(err)
			return
		}
		traces = append(traces, cell.Export(fmt.Sprintf("recording %d", seed)))
	}
	wide, err := blu.CombineTraceUEs(traces[0], traces[1])
	if err != nil {
		fmt.Println(err)
		return
	}
	replay, err := blu.NewCellFromTrace(wide, blu.ReplayConfig{M: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("combined UEs: %d UEs, %d stations; replayed cell has %d UEs\n",
		wide.NumUE, len(wide.Interference), replay.NumUE())
	dense, err := blu.CombineTraceInterference(traces[2], traces[3])
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("combined interference: %d UEs, %d stations\n", dense.NumUE, len(dense.Interference))
	// Output:
	// combined UEs: 8 UEs, 12 stations; replayed cell has 8 UEs
	// combined interference: 4 UEs, 12 stations
}

// ExampleOutcome names the fates of a grant; Metrics.Outcomes counts
// a run's grants by them.
func ExampleOutcome() {
	for _, o := range []blu.Outcome{blu.OutcomeIdle, blu.OutcomeBlocked, blu.OutcomeCollision, blu.OutcomeFading, blu.OutcomeSuccess} {
		fmt.Println(o)
	}
	// Output:
	// idle
	// blocked
	// collision
	// fading
	// success
}

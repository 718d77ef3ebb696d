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

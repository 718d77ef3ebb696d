// Package netsim is the stand-in for the paper's NS3-LAA simulation
// runs (Section 4.2.2): it mass-produces randomized large topologies —
// 5 to 25 UEs and WiFi nodes with random placements and traffic — runs
// the WiFi/LTE access simulation on each, estimates the client access
// distributions the way a promiscuous-capture UE would, and scores
// BLU's topology inference against the ground truth. The Fig 14b CDF is
// the distribution of the per-topology accuracies.
package netsim

import (
	"context"
	"fmt"

	"blu/internal/access"
	"blu/internal/blueprint"
	"blu/internal/geom"
	"blu/internal/parallel"
	"blu/internal/rng"
	"blu/internal/sim"
	"blu/internal/topology"
	"blu/internal/wifi"
)

// nodeSteps are the paper's UE/WiFi-node counts; topology i of a batch
// has nodeSteps[i mod 5] of each.
var nodeSteps = [...]int{5, 10, 15, 20, 25}

// BatchConfig parameterizes a topology batch. Inference runs with the
// blueprint defaults.
type BatchConfig struct {
	// Topologies is the number of random topologies (paper: 300).
	Topologies int
	// Subframes is the per-topology simulation horizon (default 4000).
	Subframes int
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds parallelism (0 = GOMAXPROCS, 1 = sequential).
	// Results are deterministic at every setting: each topology is
	// seeded from (Seed, index) and lands in its batch-order slot.
	Workers int
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.Topologies <= 0 {
		c.Topologies = 300
	}
	if c.Subframes <= 0 {
		c.Subframes = 4000
	}
	return c
}

// TopologyResult scores inference on one generated topology.
type TopologyResult struct {
	// Index is the topology's position in the batch.
	Index int
	// NumUE and NumStations describe the generated deployment.
	NumUE, NumStations int
	// NumHiddenTerminals is the ground-truth hidden-terminal count
	// (stations hidden from the eNB that block at least one UE).
	NumHiddenTerminals int
	// Accuracy is the paper's exact-edge-set inference accuracy.
	Accuracy float64
	// QError is the mean |q̂−q| over matched terminals.
	QError float64
	// Violation is the inferred topology's residual violation.
	Violation float64
	// Converged reports whether inference satisfied all constraints.
	Converged bool
}

// RunBatch generates and scores cfg.Topologies random topologies, in
// parallel on up to cfg.Workers goroutines. Results are returned in
// batch order regardless of scheduling.
func RunBatch(cfg BatchConfig) ([]TopologyResult, error) {
	cfg = cfg.withDefaults()
	return parallel.Map(context.Background(), cfg.Workers, cfg.Topologies, func(idx int) (TopologyResult, error) {
		return runOne(cfg, idx)
	})
}

func runOne(cfg BatchConfig, idx int) (TopologyResult, error) {
	// Per-topology streams are derived with SplitIndex, not by adding an
	// idx-scaled stride to the seed: with the additive scheme two batches
	// whose seeds differ by a multiple of the stride replay each other's
	// topology streams shifted by an index.
	r := rng.New(cfg.Seed).SplitIndex("topology", idx)
	nodes := nodeSteps[idx%len(nodeSteps)]

	sc, err := topology.NewScenario(topology.Config{
		Floor:       floorFor(nodes),
		NumUEs:      nodes,
		NumStations: nodes,
		Clustered:   r.Bool(0.5),
	}, r.Split("scenario"))
	if err != nil {
		return TopologyResult{}, fmt.Errorf("netsim: topology %d: %w", idx, err)
	}

	stations := make([]wifi.Station, nodes)
	for k := range stations {
		// "WiFi nodes transfer UDP traffic to random neighbors at a
		// bitrate chosen by the rate adaptation algorithm": random
		// airtime in a wide band.
		stations[k].Traffic = wifi.DutyCycle{Target: 0.15 + 0.5*r.Float64()}
		stations[k].Rate = wifi.RateForSNR(10 + 20*r.Float64())
	}
	cell, err := sim.New(sim.Config{
		Scenario:  sc,
		Stations:  stations,
		Subframes: cfg.Subframes,
		Seed:      r.Uint64(),
	})
	if err != nil {
		return TopologyResult{}, fmt.Errorf("netsim: topology %d: %w", idx, err)
	}

	meas := MeasureFromMasks(cell)
	inf, err := blueprint.Infer(meas, blueprint.InferOptions{})
	if err != nil {
		return TopologyResult{}, fmt.Errorf("netsim: topology %d: %w", idx, err)
	}
	truth := cell.GroundTruth()
	qerr, _ := blueprint.QError(truth, inf.Topology)
	return TopologyResult{
		Index:              idx,
		NumUE:              nodes,
		NumStations:        nodes,
		NumHiddenTerminals: len(truth.HTs),
		Accuracy:           blueprint.Accuracy(truth, inf.Topology),
		QError:             qerr,
		Violation:          inf.Violation,
		Converged:          inf.Converged,
	}, nil
}

// floorFor scales the floor with the node count so densities stay in
// the enterprise regime.
func floorFor(nodes int) geom.Floor {
	side := 60 + 6*float64(nodes)
	return geom.Floor{Width: side, Height: side * 0.7}
}

// MeasureFromMasks computes the empirical access distributions from
// the cell's full per-subframe access masks — the way the paper derives
// p(i) and p(i,j) from promiscuous-mode WiFi activity traces captured
// at the UEs. It is the measurement phase's estimator with every client
// scheduled in every subframe.
func MeasureFromMasks(cell *sim.Cell) *blueprint.Measurements {
	all := make([]int, cell.NumUE())
	for i := range all {
		all[i] = i
	}
	est := access.NewEstimator(len(all))
	for sf := 0; sf < cell.Subframes(); sf++ {
		est.Record(all, cell.AccessMask(sf))
	}
	return est.Measurements()
}

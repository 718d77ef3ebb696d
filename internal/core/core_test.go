package core

import (
	"testing"

	"blu/internal/access"
	"blu/internal/sched"
	"blu/internal/sim"
	"blu/internal/wifi"
)

// Estimator exposes the live access estimator.
func (s *System) Estimator() *access.Estimator { return s.estimator }

// Ladder returns the degradation level the controller last scheduled
// at (LadderSpeculative before any cycle completes).
func (s *System) Ladder() LadderLevel { return s.ladder }

func testCell(t *testing.T, nUE, nHT, sfs int, seed uint64) *sim.Cell {
	t.Helper()
	stations := make([]wifi.Station, nHT)
	for k := range stations {
		stations[k].Traffic = wifi.DutyCycle{Target: 0.35}
	}
	sc, err := sim.NewTestbedScenario(nUE, nHT, seed)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := sim.New(sim.Config{
		Scenario:  sc,
		Stations:  stations,
		Subframes: sfs,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{}, nil); err == nil {
		t.Error("nil cell accepted")
	}
}

func TestSystemRunPhases(t *testing.T) {
	cell := testCell(t, 6, 9, 8000, 51)
	sys, err := NewSystem(Config{T: 30, L: 3000}, cell)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) < 2 {
		t.Fatalf("only %d phases", len(rep.Phases))
	}
	if rep.Phases[0].Kind != PhaseMeasurement {
		t.Error("first phase is not measurement")
	}
	if rep.MeasurementSubframes+rep.SpeculativeSubframes != 8000 {
		t.Errorf("phases cover %d subframes, want 8000",
			rep.MeasurementSubframes+rep.SpeculativeSubframes)
	}
	// Measurement must be a small fraction of the horizon (§3.7).
	if rep.MeasurementSubframes > 8000/10 {
		t.Errorf("measurement overhead %d too large", rep.MeasurementSubframes)
	}
	if rep.FinalTopology == nil || len(rep.FinalTopology.HTs) == 0 {
		t.Error("no topology inferred")
	}
	if rep.Speculative.TotalBits == 0 {
		t.Error("speculative phases delivered nothing")
	}
	if rep.Speculative.ThroughputMbps <= 0 {
		t.Error("aggregate throughput not computed")
	}
}

func TestSystemSecondCycleSkipsMeasurement(t *testing.T) {
	cell := testCell(t, 5, 7, 9000, 53)
	sys, err := NewSystem(Config{T: 25, L: 3000}, cell)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	// After the first cycle, speculative-phase observations keep every
	// pair above the refresh threshold, so no further measurement
	// phases run (the Section 3.7 claim).
	measPhases := 0
	for _, ph := range rep.Phases {
		if ph.Kind == PhaseMeasurement {
			measPhases++
		}
	}
	if measPhases != 1 {
		t.Errorf("%d measurement phases, want 1", measPhases)
	}
	// The estimator keeps accumulating during speculative phases.
	n := cell.NumUE()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if sys.Estimator().Samples(i, j) < 25 {
				t.Errorf("pair (%d,%d) has %d samples", i, j, sys.Estimator().Samples(i, j))
			}
		}
	}
}

func TestSystemBeatsPF(t *testing.T) {
	cell := testCell(t, 8, 16, 10000, 57)
	pf, err := sched.NewPF(cell.Env())
	if err != nil {
		t.Fatal(err)
	}
	pfM := sim.Run(cell, pf, 0, 10000, nil)

	sys, err := NewSystem(Config{T: 40, L: 4000}, cell)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speculative.ThroughputMbps <= pfM.ThroughputMbps {
		t.Errorf("BLU %v Mbps did not beat PF %v Mbps",
			rep.Speculative.ThroughputMbps, pfM.ThroughputMbps)
	}
	if rep.Speculative.RBUtilization <= pfM.RBUtilization {
		t.Errorf("BLU utilization %v did not beat PF %v",
			rep.Speculative.RBUtilization, pfM.RBUtilization)
	}
}

func TestSystemInferenceAccuracyReported(t *testing.T) {
	cell := testCell(t, 6, 9, 6000, 59)
	sys, err := NewSystem(Config{T: 50, L: 5000}, cell)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range rep.Phases {
		if ph.Kind != PhaseSpeculative {
			continue
		}
		if ph.InferenceAccuracy < 0 || ph.InferenceAccuracy > 1 {
			t.Errorf("accuracy %v out of range", ph.InferenceAccuracy)
		}
		if ph.Inferred == nil {
			t.Error("speculative phase missing its blueprint")
		}
	}
}

func TestPhaseKindString(t *testing.T) {
	if PhaseMeasurement.String() != "measurement" || PhaseSpeculative.String() != "speculative" {
		t.Error("phase kind strings wrong")
	}
}

func TestMeasurementScheduleSpreadsClients(t *testing.T) {
	sch := measurementSchedule([]int{3, 5, 9}, 6)
	seen := map[int]int{}
	for _, ues := range sch.RB {
		if len(ues) != 1 {
			t.Fatalf("measurement RB with %d UEs", len(ues))
		}
		seen[ues[0]]++
	}
	for _, c := range []int{3, 5, 9} {
		if seen[c] != 2 {
			t.Errorf("client %d scheduled on %d RBs, want 2", c, seen[c])
		}
	}
	empty := measurementSchedule(nil, 4)
	for _, ues := range empty.RB {
		if len(ues) != 0 {
			t.Error("empty client list produced grants")
		}
	}
}

package core

import (
	"math"
	"testing"

	"blu/internal/sim"
	"blu/internal/wifi"
)

// mobilityCell builds a cell whose interference topology changes
// mid-horizon (§3.5 dynamics).
func mobilityCell(t *testing.T, sfs, at int, seed uint64) *sim.Cell {
	t.Helper()
	const nHT = 10
	stations := make([]wifi.Station, nHT)
	for k := range stations {
		stations[k].Traffic = wifi.DutyCycle{Target: 0.4}
	}
	sc, err := sim.NewTestbedScenario(6, nHT, seed)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := sim.New(sim.Config{
		Scenario:   sc,
		Stations:   stations,
		Subframes:  sfs,
		MobilityAt: at,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

func TestMobilityChangesGroundTruth(t *testing.T) {
	cell := mobilityCell(t, 4000, 2000, 61)
	before := cell.GroundTruthAt(0)
	after := cell.GroundTruthAt(3999)
	if len(before.HTs) == 0 || len(after.HTs) == 0 {
		t.Fatal("mobility cell has no interference")
	}
	same := true
	for i := range before.HTs {
		if i >= len(after.HTs) || before.HTs[i].Clients != after.HTs[i].Clients {
			same = false
			break
		}
	}
	if same {
		t.Error("mobility event did not change the topology")
	}
	if cell.GroundTruthAt(1999) != before {
		t.Error("pre-mobility ground truth wrong")
	}
}

func TestDriftDetectionTriggersRemeasurement(t *testing.T) {
	// Topology flips at subframe 6000; the first speculative phase
	// (L=4000) straddles it, so observed access rates diverge from the
	// stale blueprint and the controller must re-measure.
	cell := mobilityCell(t, 20000, 6000, 63)
	sys, err := NewSystem(Config{T: 40, L: 4000}, cell)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	measPhases, driftHits := 0, 0
	for _, ph := range rep.Phases {
		switch ph.Kind {
		case PhaseMeasurement:
			measPhases++
		case PhaseSpeculative:
			if ph.DriftDetected {
				driftHits++
			}
		}
	}
	if driftHits == 0 {
		t.Error("no drift detected despite a topology change")
	}
	if measPhases < 2 {
		t.Errorf("%d measurement phases, want a re-measurement after the change", measPhases)
	}
	// The final blueprint should describe the *new* topology well.
	lastSpec := rep.Phases[len(rep.Phases)-1]
	if lastSpec.Kind == PhaseSpeculative && lastSpec.InferenceAccuracy < 0.5 {
		t.Errorf("post-mobility inference accuracy %v", lastSpec.InferenceAccuracy)
	}
}

func TestNoDriftWithoutMobility(t *testing.T) {
	cell := mobilityCell(t, 12000, 0 /* no mobility */, 65)
	sys, err := NewSystem(Config{T: 40, L: 4000}, cell)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range rep.Phases {
		if ph.DriftDetected {
			t.Errorf("false drift detection (drift=%v) on a static topology", ph.Drift)
		}
	}
}

func TestDriftDetectionDisabled(t *testing.T) {
	cell := mobilityCell(t, 12000, 4000, 67)
	sys, err := NewSystem(Config{T: 40, L: 4000}, cell)
	if err != nil {
		t.Fatal(err)
	}
	sys.driftThreshold = math.Inf(1)
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range rep.Phases {
		if ph.DriftDetected {
			t.Error("drift detected with detection disabled")
		}
	}
	measPhases := 0
	for _, ph := range rep.Phases {
		if ph.Kind == PhaseMeasurement {
			measPhases++
		}
	}
	if measPhases != 1 {
		t.Errorf("%d measurement phases with drift detection off, want 1", measPhases)
	}
}

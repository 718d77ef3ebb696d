package core

import (
	"math"
	"testing"

	"blu/internal/obs"
)

// counterDeltas snapshots the controller counters so tests can assert
// exact deltas regardless of what earlier tests recorded.
type counterDeltas struct {
	measPhases, specPhases, measSF, specSF, refresh, drifts, infers int64
	measTimed, specTimed                                            int64
}

func snapCounters() counterDeltas {
	return counterDeltas{
		measPhases: obsMeasPhases.Value(),
		specPhases: obsSpecPhases.Value(),
		measSF:     obsMeasSubframes.Value(),
		specSF:     obsSpecSubframes.Value(),
		refresh:    obsRefreshPhases.Value(),
		drifts:     obsDriftResets.Value(),
		infers:     obsInferences.Value(),
		measTimed:  obsMeasTimer.Count(),
		specTimed:  obsSpecTimer.Count(),
	}
}

func (before counterDeltas) delta() counterDeltas {
	now := snapCounters()
	return counterDeltas{
		measPhases: now.measPhases - before.measPhases,
		specPhases: now.specPhases - before.specPhases,
		measSF:     now.measSF - before.measSF,
		specSF:     now.specSF - before.specSF,
		refresh:    now.refresh - before.refresh,
		drifts:     now.drifts - before.drifts,
		infers:     now.infers - before.infers,
		measTimed:  now.measTimed - before.measTimed,
		specTimed:  now.specTimed - before.specTimed,
	}
}

// TestObsPhaseTransitions asserts the controller's phase accounting
// through the obs counters instead of log scraping: the horizon splits
// exactly into measurement + speculative subframes, every phase is
// counted and timed, and each speculative phase was preceded by one
// inference.
func TestObsPhaseTransitions(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	cell := testCell(t, 6, 9, 8000, 51)
	sys, err := NewSystem(Config{T: 30, L: 3000}, cell)
	if err != nil {
		t.Fatal(err)
	}
	before := snapCounters()
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	d := before.delta()

	if d.measPhases < 1 || d.specPhases < 1 {
		t.Fatalf("phases = %d meas / %d spec, want at least one of each", d.measPhases, d.specPhases)
	}
	if d.measSF+d.specSF != 8000 {
		t.Errorf("counted subframes %d + %d != horizon 8000", d.measSF, d.specSF)
	}
	if d.measSF != int64(rep.MeasurementSubframes) || d.specSF != int64(rep.SpeculativeSubframes) {
		t.Errorf("counters (%d, %d) disagree with report (%d, %d)",
			d.measSF, d.specSF, rep.MeasurementSubframes, rep.SpeculativeSubframes)
	}
	if d.infers != d.specPhases {
		t.Errorf("%d inferences for %d speculative phases", d.infers, d.specPhases)
	}
	if d.measTimed != d.measPhases || d.specTimed != d.specPhases {
		t.Errorf("timer counts (%d, %d) disagree with phase counts (%d, %d)",
			d.measTimed, d.specTimed, d.measPhases, d.specPhases)
	}
}

// TestObsRefreshThresholdRemeasurement raises refreshThreshold above
// what speculative-phase observations can supply, forcing a partial
// re-measurement at the start of the second cycle — visible as a
// refresh-phase count, not just a second measurement phase.
func TestObsRefreshThresholdRemeasurement(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	cell := testCell(t, 6, 9, 9000, 53)
	// Pair samples accrue only when two clients are co-scheduled, so a
	// 2000-subframe speculative phase cannot push every pair past 1200
	// samples and the next cycle must re-measure.
	sys, err := NewSystem(Config{T: 30, L: 2000}, cell)
	if err != nil {
		t.Fatal(err)
	}
	sys.refreshThreshold, sys.driftThreshold = 1200, math.Inf(1)
	before := snapCounters()
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	d := before.delta()
	if d.refresh < 1 {
		t.Errorf("refresh phases = %d, want >= 1 with refreshThreshold above reach", d.refresh)
	}
	if d.measPhases != d.refresh+1 {
		t.Errorf("measurement phases = %d, want first + %d refreshes", d.measPhases, d.refresh)
	}
	if d.drifts != 0 {
		t.Errorf("drift resets = %d with drift detection disabled", d.drifts)
	}
}

// TestObsDriftReset mirrors the §3.5 mobility scenario and asserts the
// estimator reset shows up in core_drift_resets_total, followed by a
// refresh measurement phase.
func TestObsDriftReset(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	cell := mobilityCell(t, 20000, 6000, 63)
	sys, err := NewSystem(Config{T: 40, L: 4000}, cell)
	if err != nil {
		t.Fatal(err)
	}
	before := snapCounters()
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	d := before.delta()
	if d.drifts < 1 {
		t.Fatalf("drift resets = %d, want >= 1 after mid-run topology change", d.drifts)
	}
	if d.refresh < 1 {
		t.Errorf("refresh phases = %d, want a re-measurement after the drift reset", d.refresh)
	}
	detected := 0
	for _, ph := range rep.Phases {
		if ph.DriftDetected {
			detected++
		}
	}
	if int64(detected) != d.drifts {
		t.Errorf("counter says %d resets, report says %d drift detections", d.drifts, detected)
	}
}

// TestObsRefreshInferenceWarmStarts: every cycle after the first holds
// a standing blueprint, and the controller must hand it to inference
// as the warm seed — visible as blueprint_warm_starts_total advancing
// once per refresh inference.
func TestObsRefreshInferenceWarmStarts(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	warmCounter := obs.GetCounter("blueprint_warm_starts_total")
	cell := testCell(t, 6, 9, 9000, 57)
	sys, err := NewSystem(Config{T: 30, L: 2000}, cell)
	if err != nil {
		t.Fatal(err)
	}
	sys.refreshThreshold, sys.driftThreshold = 1200, math.Inf(1)
	infers0 := obsInferences.Value()
	warm0 := warmCounter.Value()
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	infers := obsInferences.Value() - infers0
	warm := warmCounter.Value() - warm0
	if infers < 2 {
		t.Fatalf("run performed %d inferences, need >= 2 to exercise the refresh path", infers)
	}
	if want := infers - 1; warm != want {
		t.Errorf("blueprint_warm_starts_total advanced %d, want %d (every inference after the first is seeded)",
			warm, want)
	}
}

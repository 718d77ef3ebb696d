package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"blu/internal/blueprint"
	"blu/internal/faults"
	"blu/internal/sched"
	"blu/internal/sim"
	"blu/internal/wifi"
)

// chaosTestCell builds the cell the chaos suite runs: a testbed-sized
// cell with a fault scenario wired into the simulator.
func chaosTestCell(t *testing.T, nUE, nHT, sfs int, seed uint64, sc *faults.Scenario) *sim.Cell {
	t.Helper()
	stations := make([]wifi.Station, nHT)
	for k := range stations {
		stations[k].Traffic = wifi.DutyCycle{Target: 0.35}
	}
	cell, err := sim.New(sim.Config{
		Scenario:  sim.NewTestbedScenario(nUE, nHT, seed),
		Stations:  stations,
		Subframes: sfs,
		Faults:    sc,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

// ladderSummary walks a report's speculative phases: gate trips,
// quarantined pairs, the deepest rung used, and the 1-based post-fault
// cycle that first ran speculative again (-1 = never, 0 = no post-fault
// cycles existed).
func ladderSummary(rep *Report, faultEnd int) (trips, quarantined int, deepest LadderLevel, recovered int) {
	sf, postFault := 0, 0
	for _, ph := range rep.Phases {
		start := sf
		sf += ph.Subframes
		if ph.Kind != PhaseSpeculative {
			continue
		}
		if ph.GateTripped {
			trips++
		}
		quarantined += ph.QuarantinedPairs
		if ph.Ladder > deepest {
			deepest = ph.Ladder
		}
		if start >= faultEnd && recovered <= 0 {
			postFault++
			if ph.Ladder == LadderSpeculative {
				recovered = postFault
			}
		}
	}
	if recovered == 0 && postFault > 0 {
		recovered = -1
	}
	return trips, quarantined, deepest, recovered
}

// TestChaosPresets is the graceful-degradation acceptance sweep: under
// every built-in fault scenario the controller must finish without
// error, cover the whole horizon, deliver at least 95% of the native-PF
// floor, and climb back to speculative scheduling within two cycles of
// the fault window clearing.
func TestChaosPresets(t *testing.T) {
	const nUE, nHT, sfs = 4, 8, 3000
	for _, name := range faults.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := faults.Preset(name, sfs)
			if err != nil {
				t.Fatal(err)
			}
			cell := chaosTestCell(t, nUE, nHT, sfs, 61, &sc)
			pf, err := sched.NewPF(cell.Env())
			if err != nil {
				t.Fatal(err)
			}
			pfm := sim.Run(cell, pf, 0, sfs, nil)

			sys, err := NewSystem(Config{T: 30, L: 500}, cell)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sys.Run()
			if err != nil {
				t.Fatalf("faulted run errored: %v", err)
			}
			if got := rep.MeasurementSubframes + rep.SpeculativeSubframes; got != sfs {
				t.Errorf("phases cover %d subframes, want %d", got, sfs)
			}
			ratio := rep.Speculative.ThroughputMbps / pfm.ThroughputMbps
			if ratio < 0.95 {
				t.Errorf("throughput %.3f Mbps is %.3f of the PF floor %.3f Mbps, want >= 0.95",
					rep.Speculative.ThroughputMbps, ratio, pfm.ThroughputMbps)
			}
			_, faultEnd := cell.Faults().Window()
			trips, quarantined, deepest, recovered := ladderSummary(rep, faultEnd)
			if recovered < 0 || recovered > 2 {
				t.Errorf("recovered on post-fault cycle %d, want within 2", recovered)
			}
			t.Logf("%s: ratio %.3f, %d trips, %d quarantined, deepest %s, recovered cycle %d",
				name, ratio, trips, quarantined, deepest, recovered)
		})
	}
}

// TestFaultedDeterminismAcrossParallelism extends the determinism
// contract to faulted runs: the same (seed, fault scenario) must yield
// a byte-identical Report at every inference Parallelism setting,
// because the fault timeline is precomputed from the scenario's seed
// and never consults execution order.
func TestFaultedDeterminismAcrossParallelism(t *testing.T) {
	const nUE, nHT, sfs = 4, 8, 2400
	for _, name := range []string{"storm", "corrupt"} {
		var base *Report
		for _, par := range []int{1, 8} {
			sc, err := faults.Preset(name, sfs)
			if err != nil {
				t.Fatal(err)
			}
			cell := chaosTestCell(t, nUE, nHT, sfs, 67, &sc)
			sys, err := NewSystem(Config{T: 30, L: 600}, cell)
			if err != nil {
				t.Fatal(err)
			}
			sys.inferParallelism = par
			rep, err := sys.Run()
			if err != nil {
				t.Fatalf("%s at parallelism %d: %v", name, par, err)
			}
			if base == nil {
				base = rep
			} else if !reflect.DeepEqual(base, rep) {
				t.Errorf("%s: report diverges between parallelism 1 and %d", name, par)
			}
		}
	}
}

// TestStallFallsBackPerLadder runs with inference stalled over the
// whole horizon: every cycle's inference must time out against the
// injected deadline, be retried the configured number of times, and
// degrade per the ladder — access-aware first, native PF after — while
// the run still completes promptly and covers the horizon.
func TestStallFallsBackPerLadder(t *testing.T) {
	const sfs = 1500
	sc := faults.Scenario{
		Name:              "stall-everywhere",
		StallPerIteration: 5 * time.Millisecond,
		InferDeadline:     25 * time.Millisecond,
	}
	cell := chaosTestCell(t, 4, 8, sfs, 71, &sc)
	sys, err := NewSystem(Config{T: 30, L: 300}, cell)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := sys.Run()
	if err != nil {
		t.Fatalf("stalled run errored: %v", err)
	}
	// Every attempt dies at the 25ms deadline: the whole run is bounded
	// by cycles × attempts × deadline, nowhere near unstalled inference.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("stalled run took %v", elapsed)
	}
	spec := 0
	for _, ph := range rep.Phases {
		if ph.Kind != PhaseSpeculative {
			continue
		}
		spec++
		if !ph.GateTripped {
			t.Fatalf("phase %d passed the gate under a total stall", spec)
		}
		if ph.GateReason != gateReasonDeadline {
			t.Errorf("phase %d reason %q, want %q", spec, ph.GateReason, gateReasonDeadline)
		}
		if ph.InferRetries != 2 {
			t.Errorf("phase %d spent %d retries, want 2", spec, ph.InferRetries)
		}
		if ph.Inferred != nil {
			t.Errorf("phase %d carries a blueprint despite tripping", spec)
		}
		want := LadderPF
		if spec == 1 {
			want = LadderAccessAware
		}
		if ph.Ladder != want {
			t.Errorf("phase %d ran at %s, want %s", spec, ph.Ladder, want)
		}
	}
	if spec == 0 {
		t.Fatal("no speculative phases ran")
	}
	if sys.Ladder() != LadderPF {
		t.Errorf("final ladder %s, want pf", sys.Ladder())
	}
	if rep.FinalTopology != nil {
		t.Error("a topology was accepted under a total stall")
	}
}

// TestRunContextCanceled: a fired context ends the run with an error
// wrapping ErrCanceled (cancellation is a caller decision, never a
// ladder fallback).
func TestRunContextCanceled(t *testing.T) {
	cell := chaosTestCell(t, 4, 6, 2000, 73, nil)
	sys, err := NewSystem(Config{T: 30, L: 400}, cell)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := sys.RunContext(ctx)
	if rep != nil {
		t.Error("canceled run returned a report")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestLadderEscalation drives decideCycle directly: consecutive gate
// trips walk speculative → access-aware → PF, the escalateAfter'th trip
// resets the estimator (forcing full re-measurement), and a passing
// cycle climbs straight back to speculative.
func TestLadderEscalation(t *testing.T) {
	cell := chaosTestCell(t, 4, 6, 2000, 79, nil)
	sys, err := NewSystem(Config{T: 20, L: 400}, cell)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the estimator with real observations so it has samples to lose.
	if _, err := sys.measurementPhase(0, 2000); err != nil {
		t.Fatal(err)
	}
	if sys.estimator.Samples(0, 1) == 0 {
		t.Fatal("measurement phase produced no samples")
	}

	// An unreachable sample requirement trips the gate every cycle.
	sys.gateMinSamples = 1 << 30
	ctx := context.Background()
	wantLevels := []LadderLevel{LadderAccessAware, LadderPF, LadderPF}
	for i, want := range wantLevels {
		dec, err := sys.decideCycle(ctx, 0, sys.estimator.Measurements(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.tripped || dec.reason != gateReasonSamples {
			t.Fatalf("trip %d: tripped=%v reason=%q", i+1, dec.tripped, dec.reason)
		}
		if dec.level != want {
			t.Errorf("trip %d: level %s, want %s", i+1, dec.level, want)
		}
	}
	// The third consecutive trip (escalateAfter = 3) reset the estimator.
	if got := sys.estimator.Samples(0, 1); got != 0 {
		t.Errorf("estimator kept %d samples after escalation", got)
	}

	// Gate relaxed: the very next cycle climbs back to speculative.
	sys.gateMinSamples = 0
	dec, err := sys.decideCycle(ctx, 0, sys.estimator.Measurements(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.tripped || dec.level != LadderSpeculative || dec.res == nil {
		t.Errorf("recovery cycle: tripped=%v level=%s res=%v", dec.tripped, dec.level, dec.res)
	}
	if sys.consecTrips != 0 {
		t.Errorf("consecTrips = %d after recovery, want 0", sys.consecTrips)
	}
}

// TestGateTripsOnHighViolation drives the violation rung of the gate:
// with every pair well sampled, measurements no topology can fit leave
// a residual above gateMaxViolation, so the cycle trips with reason
// high-violation and the first trip steps down to access-aware.
func TestGateTripsOnHighViolation(t *testing.T) {
	cell := chaosTestCell(t, 4, 6, 2000, 89, nil)
	sys, err := NewSystem(Config{T: 20, L: 400}, cell)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.measurementPhase(0, 2000); err != nil {
		t.Fatal(err)
	}
	if n := sys.minPairSamples(); n < sys.gateMinSamples {
		t.Fatalf("measurement phase left a pair at %d samples, below the %d the sample rung needs", n, sys.gateMinSamples)
	}

	// A pair cannot clear together more often than either member clears
	// alone, so p(0,1) = 0.99 against marginals of 0.2 leaves the best
	// fit ≈ 1.6 away in the −log domain, far beyond gateMaxViolation.
	m := blueprint.NewMeasurements(4)
	for i := range m.P {
		m.P[i] = 0.2
		for j := i + 1; j < 4; j++ {
			m.SetPair(i, j, 0.2*0.2)
		}
	}
	m.SetPair(0, 1, 0.99)
	dec, err := sys.decideCycle(context.Background(), 0, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.tripped || dec.reason != gateReasonViolation {
		t.Fatalf("tripped=%v reason=%q, want a %q trip", dec.tripped, dec.reason, gateReasonViolation)
	}
	if dec.level != LadderAccessAware {
		t.Errorf("level %s, want %s", dec.level, LadderAccessAware)
	}
	if dec.res != nil {
		t.Error("a tripped cycle kept its blueprint")
	}
}

// TestSetSchedulerWarmStart: switching rungs carries the PF fairness
// state over and switching to the current rung is a no-op.
func TestSetSchedulerWarmStart(t *testing.T) {
	cell := chaosTestCell(t, 4, 6, 1000, 83, nil)
	sys, err := NewSystem(Config{T: 20, L: 200}, cell)
	if err != nil {
		t.Fatal(err)
	}
	// Run a short stretch so the speculative scheduler accrues averages.
	sim.Run(cell, sys.spec, 0, 300, nil)
	if sys.spec.AvgThroughput(0) <= 0 {
		t.Fatal("speculative scheduler has no throughput state")
	}
	sys.setScheduler(LadderAccessAware)
	if sys.active != sys.aa || sys.Ladder() != LadderAccessAware {
		t.Fatal("ladder did not switch to access-aware")
	}
	for i := 0; i < cell.NumUE(); i++ {
		if want := sys.spec.AvgThroughput(i); want > 0 && sys.aa.AvgThroughput(i) != want {
			t.Errorf("UE %d warm-start avg %v, want %v", i, sys.aa.AvgThroughput(i), want)
		}
	}
	sys.setScheduler(LadderAccessAware) // same rung: no-op
	if sys.active != sys.aa {
		t.Error("re-selecting the active rung changed the scheduler")
	}
	sys.setScheduler(LadderSpeculative)
	if sys.active != sys.spec || sys.Ladder() != LadderSpeculative {
		t.Error("ladder did not climb back to speculative")
	}
}

package faults

import (
	"errors"
	"testing"
	"time"

	"blu/internal/blueprint"
)

// Scenario returns the instantiated scenario (with defaults applied).
func (in *Injector) Scenario() Scenario { return in.sc }

func mustNew(t *testing.T, sc Scenario, n, horizon int) *Injector {
	t.Helper()
	in, err := New(sc, n, horizon)
	if err != nil {
		t.Fatalf("New(%+v): %v", sc, err)
	}
	return in
}

func TestPresetsConstruct(t *testing.T) {
	const n, horizon = 6, 4000
	for _, name := range Names() {
		sc, err := Preset(name, horizon)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if sc.Name != name {
			t.Errorf("Preset(%q).Name = %q", name, sc.Name)
		}
		in := mustNew(t, sc, n, horizon)
		start, end := in.Window()
		if start < 0 || end > horizon || start > end {
			t.Errorf("%s: window [%d,%d) outside [0,%d)", name, start, end, horizon)
		}
	}
	if _, err := Preset("nope", horizon); !errors.Is(err, ErrBadScenario) {
		t.Errorf("unknown preset error = %v, want ErrBadScenario", err)
	}
}

func TestNonePresetInjectsNothing(t *testing.T) {
	sc, err := Preset("none", 2000)
	if err != nil {
		t.Fatal(err)
	}
	in := mustNew(t, sc, 4, 2000)
	for sf := 0; sf < 2000; sf++ {
		if in.DropObservation(sf) || !in.FlipOutcomes(sf).Empty() || !in.ExtraBlocked(sf).Empty() {
			t.Fatalf("none preset injected at sf %d", sf)
		}
		if in.InferStall(sf) != nil || in.InferDeadline(sf) != 0 {
			t.Fatalf("none preset stalls at sf %d", sf)
		}
	}
}

// TestInjectorDeterminism is the timeline contract: the same scenario
// instantiated twice for the same cell size produces byte-identical
// fault timelines — nothing depends on construction order or time.
func TestInjectorDeterminism(t *testing.T) {
	const n, horizon = 8, 3000
	for _, name := range Names() {
		sc, err := Preset(name, horizon)
		if err != nil {
			t.Fatal(err)
		}
		a := mustNew(t, sc, n, horizon)
		b := mustNew(t, sc, n, horizon)
		for sf := 0; sf < horizon; sf++ {
			if a.DropObservation(sf) != b.DropObservation(sf) ||
				a.FlipOutcomes(sf) != b.FlipOutcomes(sf) ||
				a.ExtraBlocked(sf) != b.ExtraBlocked(sf) {
				t.Fatalf("%s: timelines diverge at sf %d", name, sf)
			}
		}
	}
}

func TestFaultsConfinedToWindow(t *testing.T) {
	sc := Scenario{
		Name:     "windowed",
		Start:    500,
		End:      1000,
		DropRate: 0.5,
		FlipRate: 0.5,
		Churn:    ChurnConfig{Terminals: 2},
		Burst:    BurstConfig{On: 30, Off: 30},
	}
	in := mustNew(t, sc, 6, 2000)
	for sf := 0; sf < 2000; sf++ {
		inside := sf >= 500 && sf < 1000
		if in.Active(sf) != inside {
			t.Fatalf("Active(%d) = %v", sf, !inside)
		}
		if !inside && (in.DropObservation(sf) || !in.FlipOutcomes(sf).Empty() || !in.ExtraBlocked(sf).Empty()) {
			t.Fatalf("fault outside window at sf %d", sf)
		}
	}
	// Out-of-range subframes are harmless no-ops.
	if in.DropObservation(-1) || in.DropObservation(5000) ||
		!in.FlipOutcomes(-1).Empty() || !in.ExtraBlocked(9999).Empty() {
		t.Error("out-of-range subframes injected faults")
	}
}

// TestLossAndCorruptionRates checks the injected rates land near the
// configured probabilities over a wide window.
func TestLossAndCorruptionRates(t *testing.T) {
	const n, horizon = 5, 20000
	in := mustNew(t, Scenario{Name: "rates", DropRate: 0.4, FlipRate: 0.2}, n, horizon)
	drops, flips := 0, 0
	for sf := 0; sf < horizon; sf++ {
		if in.DropObservation(sf) {
			drops++
		}
		flips += in.FlipOutcomes(sf).Count()
	}
	if got := float64(drops) / horizon; got < 0.35 || got > 0.45 {
		t.Errorf("drop rate %v, want ~0.4", got)
	}
	if got := float64(flips) / float64(horizon*n); got < 0.17 || got > 0.23 {
		t.Errorf("flip rate %v, want ~0.2", got)
	}
}

// TestChurnTerminalsMove checks each churn terminal appears, blocks a
// bounded client set, and rotates that set over its lifetime.
func TestChurnTerminalsMove(t *testing.T) {
	const n, horizon = 8, 4000
	in := mustNew(t, Scenario{
		Name:  "churn",
		Churn: ChurnConfig{Terminals: 1, Lifetime: 2000, MovePeriod: 200, Duty: 1, Degree: 2},
	}, n, horizon)
	var sets []blueprint.ClientSet
	blockedSF := 0
	for sf := 0; sf < horizon; sf++ {
		set := in.ExtraBlocked(sf)
		if set.Empty() {
			continue
		}
		blockedSF++
		if set.Count() > 2 {
			t.Fatalf("degree-2 terminal blocks %d clients at sf %d", set.Count(), sf)
		}
		if len(sets) == 0 || sets[len(sets)-1] != set {
			sets = append(sets, set)
		}
	}
	if blockedSF == 0 {
		t.Fatal("churn terminal never blocked anyone")
	}
	if len(sets) < 2 {
		t.Errorf("terminal never moved: %d distinct sets over its lifetime", len(sets))
	}
}

func TestBurstDutyCycle(t *testing.T) {
	const n, horizon = 6, 3000
	in := mustNew(t, Scenario{Name: "burst", Burst: BurstConfig{On: 50, Off: 150, Degree: 3}}, n, horizon)
	blocked := 0
	for sf := 0; sf < horizon; sf++ {
		set := in.ExtraBlocked(sf)
		if !set.Empty() {
			blocked++
			if set.Count() != 3 {
				t.Fatalf("burst blocks %d clients at sf %d, want 3", set.Count(), sf)
			}
		}
	}
	// 50 on out of every 200: a quarter of the horizon.
	if got := float64(blocked) / horizon; got < 0.2 || got > 0.3 {
		t.Errorf("burst duty %v, want ~0.25", got)
	}
}

func TestStallHookAndDeadline(t *testing.T) {
	in := mustNew(t, Scenario{
		Name:              "stall",
		Start:             100,
		End:               200,
		StallPerIteration: time.Microsecond,
		InferDeadline:     5 * time.Millisecond,
	}, 4, 1000)
	if in.InferStall(50) != nil || in.InferDeadline(50) != 0 {
		t.Error("stall active outside window")
	}
	hook := in.InferStall(150)
	if hook == nil {
		t.Fatal("no stall hook inside window")
	}
	hook() // must not panic; sleeps one stall quantum
	if got := in.InferDeadline(150); got != 5*time.Millisecond {
		t.Errorf("InferDeadline = %v, want 5ms", got)
	}
}

func TestBadScenariosRejected(t *testing.T) {
	cases := []Scenario{
		{Name: "drop", DropRate: 1.5},
		{Name: "drop-neg", DropRate: -0.1},
		{Name: "flip", FlipRate: 2},
		{Name: "start", Start: -5},
		{Name: "duty", Churn: ChurnConfig{Terminals: 1, Duty: 1.5}},
		{Name: "neg-burst", Burst: BurstConfig{On: -1}},
	}
	for _, sc := range cases {
		if _, err := New(sc, 4, 100); !errors.Is(err, ErrBadScenario) {
			t.Errorf("%s: err = %v, want ErrBadScenario", sc.Name, err)
		}
	}
	if _, err := New(Scenario{Name: "n"}, 0, 100); !errors.Is(err, ErrBadScenario) {
		t.Errorf("zero clients: err = %v", err)
	}
	if _, err := New(Scenario{Name: "n"}, blueprint.MaxClients+1, 100); !errors.Is(err, ErrBadScenario) {
		t.Errorf("oversized cell: err = %v", err)
	}
	if _, err := New(Scenario{Name: "h"}, 4, 0); !errors.Is(err, ErrBadScenario) {
		t.Errorf("zero horizon: err = %v", err)
	}
}

func TestScenarioDefaultsApplied(t *testing.T) {
	in := mustNew(t, Scenario{Name: "d", Churn: ChurnConfig{Terminals: 1}, Burst: BurstConfig{On: 10}}, 4, 500)
	sc := in.Scenario()
	if sc.Seed != 1 {
		t.Errorf("default seed %d, want 1", sc.Seed)
	}
	if sc.Churn.Lifetime <= 0 || sc.Churn.MovePeriod <= 0 || sc.Churn.Duty <= 0 || sc.Churn.Degree <= 0 {
		t.Errorf("churn defaults missing: %+v", sc.Churn)
	}
	if sc.Burst.Off != 10 || sc.Burst.Degree <= 0 {
		t.Errorf("burst defaults missing: %+v", sc.Burst)
	}
}

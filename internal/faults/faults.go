// Package faults is BLU's deterministic, seeded fault-injection layer:
// it perturbs a simulated cell and the controller's observation stream
// the way non-stationary deployments do (§3.5 mobility, §3.7
// speculative estimation), so robustness can be exercised and asserted
// instead of assumed.
//
// Four fault families are modeled:
//
//   - hidden-terminal churn: synthetic interference sources appear,
//     move (their blocked-client set rotates), and disappear inside the
//     fault window, silencing clients the ground-truth blueprint knows
//     nothing about;
//   - measurement loss and corruption: a subframe's access observation
//     is dropped before it reaches the estimator, or individual CCA
//     outcomes are flipped, poisoning p(i)/p(i,j) estimates;
//   - bursty interference: a duty-cycled interferer blocks a random
//     client subset in on/off bursts (the bursty-WiFi regime of the
//     coexistence literature);
//   - inference stalls: an artificial per-iteration delay inside
//     topology inference, exercising the controller's per-inference
//     deadline and retry/fallback ladder.
//
// Everything is precomputed from the scenario's own seed at
// construction, so a fault timeline depends only on (Scenario, N,
// horizon) — never on execution order or worker count — and faulted
// runs stay byte-identical across Parallelism settings.
package faults

import (
	"errors"
	"fmt"
	"time"

	"blu/internal/blueprint"
	"blu/internal/obs"
	"blu/internal/rng"
)

// Injection telemetry: how much of each fault family a run actually
// injected. Totals are recorded when the timeline is precomputed (the
// injection happens then); stall iterations are counted as they bite.
var (
	obsDrops      = obs.GetCounter("faults_observations_dropped_total")
	obsFlips      = obs.GetCounter("faults_outcomes_flipped_total")
	obsChurnMoves = obs.GetCounter("faults_churn_events_total")
	obsBursts     = obs.GetCounter("faults_bursts_total")
	obsBlockedSF  = obs.GetCounter("faults_blocked_subframes_total")
	obsStallIters = obs.GetCounter("faults_stall_iterations_total")
)

// ErrBadScenario labels invalid scenario parameters.
var ErrBadScenario = errors.New("faults: invalid scenario")

// ChurnConfig parameterizes hidden-terminal churn: Terminals synthetic
// interferers that appear staggered inside the fault window, block
// Degree consecutive clients with duty-cycled activity, rotate their
// blocked set every MovePeriod subframes, and vanish after Lifetime.
type ChurnConfig struct {
	Terminals  int
	Lifetime   int
	MovePeriod int
	Duty       float64
	Degree     int
}

// BurstConfig parameterizes bursty interference: On subframes of
// blocking followed by Off subframes of silence, each burst silencing a
// fresh random set of Degree clients.
type BurstConfig struct {
	On, Off int
	Degree  int
}

// Scenario is one declarative fault plan. The zero value injects
// nothing; every family is independent and they freely combine.
type Scenario struct {
	// Name labels the scenario in tables and metrics.
	Name string
	// Start and End bound the fault window in subframes [Start, End);
	// End <= 0 means the whole horizon.
	Start, End int
	// DropRate is the probability a subframe's access observation is
	// lost before reaching the estimator (the schedule still executes
	// and delivers data; only the measurement is gone).
	DropRate float64
	// FlipRate is the per-client probability an observed CCA outcome is
	// inverted in the estimator feed (corruption).
	FlipRate float64
	// Churn configures hidden-terminal churn (zero Terminals disables).
	Churn ChurnConfig
	// Burst configures bursty interference (zero On disables).
	Burst BurstConfig
	// StallPerIteration delays every topology-inference iteration while
	// the fault window covers the inference's subframe, exercising the
	// controller's per-inference deadline.
	StallPerIteration time.Duration
	// InferDeadline, when positive, overrides the controller's
	// per-inference deadline while the stall is active, so tests can
	// force timeouts without waiting out production-sized deadlines.
	InferDeadline time.Duration
	// Seed drives every random draw of the fault timeline (default 1).
	// The scenario is self-seeding: the same scenario produces the same
	// timeline in any cell of the same size.
	Seed uint64
}

func (s Scenario) withDefaults() Scenario {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Churn.Terminals > 0 {
		if s.Churn.Lifetime <= 0 {
			s.Churn.Lifetime = 600
		}
		if s.Churn.MovePeriod <= 0 {
			s.Churn.MovePeriod = 150
		}
		if s.Churn.Duty <= 0 {
			s.Churn.Duty = 0.5
		}
		if s.Churn.Degree <= 0 {
			s.Churn.Degree = 2
		}
	}
	if s.Burst.On > 0 {
		if s.Burst.Off <= 0 {
			s.Burst.Off = s.Burst.On
		}
		if s.Burst.Degree <= 0 {
			s.Burst.Degree = 2
		}
	}
	return s
}

func (s Scenario) validate() error {
	if s.DropRate < 0 || s.DropRate > 1 {
		return fmt.Errorf("%w: drop rate %v outside [0,1]", ErrBadScenario, s.DropRate)
	}
	if s.FlipRate < 0 || s.FlipRate > 1 {
		return fmt.Errorf("%w: flip rate %v outside [0,1]", ErrBadScenario, s.FlipRate)
	}
	if s.Churn.Terminals < 0 || s.Burst.On < 0 || s.Burst.Off < 0 {
		return fmt.Errorf("%w: negative churn/burst size", ErrBadScenario)
	}
	if s.Churn.Duty > 1 {
		return fmt.Errorf("%w: churn duty %v above 1", ErrBadScenario, s.Churn.Duty)
	}
	if s.Start < 0 {
		return fmt.Errorf("%w: negative window start %d", ErrBadScenario, s.Start)
	}
	return nil
}

// Injector is a scenario instantiated for one cell: the precomputed
// per-subframe fault timeline.
type Injector struct {
	sc         Scenario
	n, horizon int
	start, end int

	drop    []bool                // observation loss per subframe
	flip    []blueprint.ClientSet // per-subframe outcome inversions
	blocked []blueprint.ClientSet // extra CCA-blocked clients per subframe
}

// New instantiates the scenario for a cell of n clients over horizon
// subframes, precomputing the whole fault timeline from the scenario's
// seed.
func New(sc Scenario, n, horizon int) (*Injector, error) {
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if n <= 0 || n > blueprint.MaxClients {
		return nil, fmt.Errorf("%w: %d clients out of range", ErrBadScenario, n)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("%w: horizon %d", ErrBadScenario, horizon)
	}
	in := &Injector{
		sc:      sc,
		n:       n,
		horizon: horizon,
		start:   sc.Start,
		end:     sc.End,
	}
	if in.end <= 0 || in.end > horizon {
		in.end = horizon
	}
	if in.start > in.end {
		in.start = in.end
	}
	in.drop = make([]bool, horizon)
	in.flip = make([]blueprint.ClientSet, horizon)
	in.blocked = make([]blueprint.ClientSet, horizon)

	root := rng.New(sc.Seed).Split("faults:" + sc.Name)
	in.buildLossAndCorruption(root.Split("obs"))
	in.buildChurn(root.Split("churn"))
	in.buildBurst(root.Split("burst"))
	in.recordTotals()
	return in, nil
}

func (in *Injector) buildLossAndCorruption(r *rng.Source) {
	if in.sc.DropRate <= 0 && in.sc.FlipRate <= 0 {
		return
	}
	for sf := in.start; sf < in.end; sf++ {
		if in.sc.DropRate > 0 && r.Bool(in.sc.DropRate) {
			in.drop[sf] = true
		}
		if in.sc.FlipRate <= 0 {
			continue
		}
		var set blueprint.ClientSet
		for ue := 0; ue < in.n; ue++ {
			if r.Bool(in.sc.FlipRate) {
				set = set.Add(ue)
			}
		}
		in.flip[sf] = set
	}
}

// buildChurn lays down the synthetic terminals' lifetimes: staggered
// appearances across the window, duty-cycled activity, and an edge-set
// rotation (a "move") every MovePeriod subframes.
func (in *Injector) buildChurn(r *rng.Source) {
	cc := in.sc.Churn
	window := in.end - in.start
	if cc.Terminals <= 0 || window <= 0 {
		return
	}
	degree := min(cc.Degree, in.n)
	for t := 0; t < cc.Terminals; t++ {
		tr := r.SplitIndex("terminal", t)
		born := in.start + t*window/(cc.Terminals+1)
		die := min(born+cc.Lifetime, in.end)
		base := tr.Intn(in.n)
		period := 24 + tr.Intn(24)
		on := max(1, int(cc.Duty*float64(period)))
		phase := tr.Intn(period)
		for sf := born; sf < die; sf++ {
			if (sf+phase)%period >= on {
				continue
			}
			shift := (sf - born) / cc.MovePeriod
			var set blueprint.ClientSet
			for d := 0; d < degree; d++ {
				set = set.Add((base + shift + d) % in.n)
			}
			in.blocked[sf] = in.blocked[sf].Union(set)
		}
		if die > born {
			// Appear + disappear + every completed rotation counts as one
			// churn event.
			obsChurnMoves.Add(int64(2 + (die-born-1)/cc.MovePeriod))
		}
	}
}

func (in *Injector) buildBurst(r *rng.Source) {
	b := in.sc.Burst
	if b.On <= 0 {
		return
	}
	degree := min(b.Degree, in.n)
	for start := in.start; start < in.end; start += b.On + b.Off {
		var set blueprint.ClientSet
		for set.Count() < degree {
			set = set.Add(r.Intn(in.n))
		}
		for sf := start; sf < min(start+b.On, in.end); sf++ {
			in.blocked[sf] = in.blocked[sf].Union(set)
		}
		obsBursts.Inc()
	}
}

func (in *Injector) recordTotals() {
	var drops, flips, blockedSF int64
	for sf := 0; sf < in.horizon; sf++ {
		if in.drop[sf] {
			drops++
		}
		flips += int64(in.flip[sf].Count())
		if !in.blocked[sf].Empty() {
			blockedSF++
		}
	}
	obsDrops.Add(drops)
	obsFlips.Add(flips)
	obsBlockedSF.Add(blockedSF)
}

// Active reports whether sf lies inside the fault window.
func (in *Injector) Active(sf int) bool { return sf >= in.start && sf < in.end }

// Window returns the effective fault window [start, end).
func (in *Injector) Window() (start, end int) { return in.start, in.end }

// ExtraBlocked returns the clients additionally CCA-blocked at sf by
// injected interference (churn terminals, bursts).
func (in *Injector) ExtraBlocked(sf int) blueprint.ClientSet {
	if sf < 0 || sf >= in.horizon {
		return 0
	}
	return in.blocked[sf]
}

// DropObservation reports whether the controller's access observation
// for sf is lost before reaching the estimator.
func (in *Injector) DropObservation(sf int) bool {
	return sf >= 0 && sf < in.horizon && in.drop[sf]
}

// FlipOutcomes returns the clients whose observed CCA outcome inverts
// at sf in the estimator feed.
func (in *Injector) FlipOutcomes(sf int) blueprint.ClientSet {
	if sf < 0 || sf >= in.horizon {
		return 0
	}
	return in.flip[sf]
}

// InferStall returns the per-iteration stall hook for an inference
// started at subframe sf, or nil when the stall fault is inactive
// there.
func (in *Injector) InferStall(sf int) func() {
	d := in.sc.StallPerIteration
	if d <= 0 || !in.Active(sf) {
		return nil
	}
	return func() {
		obsStallIters.Inc()
		time.Sleep(d)
	}
}

// InferDeadline returns the scenario's per-inference deadline override
// for an inference started at sf (0 = no override). It only applies
// while the stall is active, so healthy inferences outside the window
// never race a shrunken deadline.
func (in *Injector) InferDeadline(sf int) time.Duration {
	if in.sc.StallPerIteration <= 0 || !in.Active(sf) {
		return 0
	}
	return in.sc.InferDeadline
}

// Names returns the built-in scenario names in presentation order.
func Names() []string {
	return []string{"none", "churn", "loss", "corrupt", "burst", "stall", "storm"}
}

// Preset returns a built-in scenario sized for a horizon: the fault
// window covers the middle [horizon/4, 5·horizon/8) so a run both
// degrades under the fault and gets room to recover after it clears.
func Preset(name string, horizon int) (Scenario, error) {
	start, end := horizon/4, 5*horizon/8
	sc := Scenario{Name: name, Start: start, End: end}
	switch name {
	case "none":
		sc.Start, sc.End = 0, 1 // empty timeline, injector still wired
	case "churn":
		sc.Churn = ChurnConfig{Terminals: 3}
	case "loss":
		sc.DropRate = 0.6
	case "corrupt":
		sc.FlipRate = 0.3
	case "burst":
		sc.Burst = BurstConfig{On: 60, Off: 90}
	case "stall":
		sc.StallPerIteration = 5 * time.Millisecond
		sc.InferDeadline = 25 * time.Millisecond
	case "storm":
		sc.Churn = ChurnConfig{Terminals: 2}
		sc.DropRate = 0.3
		sc.FlipRate = 0.15
		sc.Burst = BurstConfig{On: 40, Off: 120}
	default:
		return Scenario{}, fmt.Errorf("%w: unknown preset %q", ErrBadScenario, name)
	}
	return sc, nil
}

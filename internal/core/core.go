// Package core is BLU's eNB-side controller (Fig 9): it alternates a
// short measurement phase — scheduling clients per Algorithm 1 to
// estimate pair-wise access distributions — with a long speculative
// phase in which it blue-prints the interference topology, derives the
// joint access distributions from it, and runs the speculative
// scheduler. Speculative-phase outcomes keep feeding the estimator, so
// later measurement phases shrink or disappear (Section 3.7).
package core

import (
	"context"
	"fmt"
	"time"

	"blu/internal/access"
	"blu/internal/blueprint"
	"blu/internal/faults"
	"blu/internal/joint"
	"blu/internal/lte"
	"blu/internal/obs"
	"blu/internal/sched"
	"blu/internal/sim"
)

// Controller phase accounting, exposed through the obs layer so runs
// can be audited without log scraping: how the horizon split between
// phases, how often the §3.5 dynamics forced re-measurement, and how
// long each phase and inference took.
var (
	obsMeasPhases    = obs.GetCounter("core_measurement_phases_total")
	obsSpecPhases    = obs.GetCounter("core_speculative_phases_total")
	obsMeasSubframes = obs.GetCounter("core_measurement_subframes_total")
	obsSpecSubframes = obs.GetCounter("core_speculative_subframes_total")
	// obsRefreshPhases counts measurement phases after the first
	// blueprint: refreshThreshold-triggered partial re-measurement or a
	// full re-measurement after a drift reset.
	obsRefreshPhases = obs.GetCounter("core_refresh_phases_total")
	obsDriftResets   = obs.GetCounter("core_drift_resets_total")
	obsInferences    = obs.GetCounter("core_inferences_total")
	obsMeasTimer     = obs.GetTimer("core_measurement_phase")
	obsSpecTimer     = obs.GetTimer("core_speculative_phase")
	obsInferTimer    = obs.GetTimer("core_inference")
	obsDriftGauge    = obs.GetGauge("core_last_drift")
)

// Config tunes the controller. The zero value selects the paper's
// choices; everything else about the loop is fixed (see the constants
// below).
type Config struct {
	// T is the number of samples wanted per client pair in a
	// measurement phase (default 50, the paper's choice).
	T int
	// L is the speculative-phase length in subframes (default 5000;
	// the paper picks L ≫ t_max, several thousand subframes).
	L int
}

func (c Config) withDefaults() Config {
	if c.T <= 0 {
		c.T = 50
	}
	if c.L <= 0 {
		c.L = 5000
	}
	return c
}

// The controller's fixed policy. The speculative scheduler keeps its
// own default over-scheduling factor f = 2, and inference runs with the
// blueprint defaults.
const (
	// defaultDriftThreshold triggers a full re-measurement (estimator
	// reset + fresh measurement phase) when a speculative phase's
	// observed per-client access rates diverge from the rates measured
	// when its blueprint was built by more than this amount — the §3.5
	// response to client/terminal mobility breaking stationarity.
	defaultDriftThreshold = 0.25
	// inferTimeout is the per-inference-attempt deadline. A cell's fault
	// injector may shrink it while a stall fault is active.
	inferTimeout = 10 * time.Second
	// inferRetries is how many times a failed inference is retried with
	// a halved start/perturbation budget before the cycle degrades.
	inferRetries = 2
	// gateMaxViolation is the confidence gate on the blueprint: a cycle
	// whose InferResult.MaxViolation exceeds it is not trusted and the
	// controller steps down the ladder. It is far above healthy
	// residuals (tolerance-scale, ~0.02) but below the wreckage a
	// poisoned estimator produces.
	gateMaxViolation = 0.6
	// quarantineTolerance bounds the per-pair marginal-consistency check
	// run before each inference: pairs outside the consistent region by
	// more than this (plus a sample-noise allowance) have their pair
	// statistics dropped and re-measured.
	quarantineTolerance = 0.1
	// escalateAfter escalates to a full estimator reset — forcing a
	// complete re-measurement — after this many consecutive gate trips.
	escalateAfter = 3
)

// PhaseKind labels the controller's operating phases.
type PhaseKind int

// Phase kinds.
const (
	PhaseMeasurement PhaseKind = iota
	PhaseSpeculative
)

// String implements fmt.Stringer.
func (p PhaseKind) String() string {
	if p == PhaseMeasurement {
		return "measurement"
	}
	return "speculative"
}

// Phase summarizes one completed phase.
type Phase struct {
	Kind      PhaseKind
	Subframes int
	// Metrics is the phase's scheduler metrics (both phases carry data).
	Metrics *sim.Metrics
	// Inferred is the blueprint produced at the start of a speculative
	// phase (nil for measurement phases and gate-tripped cycles).
	Inferred *blueprint.Topology
	// InferenceAccuracy scores Inferred against the ground truth in
	// force when the phase started.
	InferenceAccuracy float64
	// Drift is the max |observed − predicted| access-rate divergence
	// seen during a speculative phase; DriftDetected marks phases whose
	// divergence triggered a re-measurement.
	Drift         float64
	DriftDetected bool
	// Ladder is the degradation level the phase ran at (speculative
	// phases only; measurement phases record LadderSpeculative).
	Ladder LadderLevel
	// GateTripped marks cycles whose blueprint failed the confidence
	// gate; GateReason classifies why (one of the fixed gate-reason
	// strings), and InferRetries counts the retry attempts spent.
	GateTripped  bool
	GateReason   string
	InferRetries int
	// QuarantinedPairs counts pair statistics dropped by the
	// pre-inference consistency check for this cycle.
	QuarantinedPairs int
}

// Report is the outcome of a full controller run.
type Report struct {
	Phases []Phase
	// MeasurementSubframes and SpeculativeSubframes split the horizon.
	MeasurementSubframes, SpeculativeSubframes int
	// Speculative aggregates delivered bits and utilization over all
	// speculative subframes (the paper's headline numbers exclude the
	// measurement overhead, which is why keeping t_max ≪ L matters).
	Speculative *sim.Metrics
	// FinalTopology is the last inferred blueprint.
	FinalTopology *blueprint.Topology
}

// System is BLU's controller bound to one simulated cell.
type System struct {
	cfg       Config
	cell      *sim.Cell
	estimator *access.Estimator
	spec      *sched.Speculative

	// refreshThreshold re-runs a measurement phase at the start of a
	// cycle for any pair with fewer samples (T); gateMinSamples is the
	// per-pair sample floor a trusted blueprint needs (max(1, T/4));
	// driftThreshold is defaultDriftThreshold; inferParallelism is
	// blueprint.InferOptions.Parallelism (0 = its default). They are
	// fields, not constants, so tests can move them after NewSystem.
	refreshThreshold int
	gateMinSamples   int
	driftThreshold   float64
	inferParallelism int

	// Degradation-ladder state: the fallback schedulers, whichever rung
	// is currently scheduling, and how many consecutive cycles tripped
	// the confidence gate.
	aa          *sched.AccessAware
	pf          *sched.PF
	active      schedulerOnLadder
	ladder      LadderLevel
	consecTrips int

	// inj is the cell's fault injector (nil on healthy cells).
	inj *faults.Injector

	// Per-speculative-phase observation counters for drift detection.
	recentSched, recentAccess []int
}

// NewSystem builds the controller for a cell.
func NewSystem(cfg Config, cell *sim.Cell) (*System, error) {
	if cell == nil {
		return nil, ErrCellRequired
	}
	cfg = cfg.withDefaults()
	spec, err := sched.NewSpeculative(cell.Env(), &joint.Independent{P: ones(cell.NumUE())})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	aa, err := sched.NewAccessAware(cell.Env(), &joint.Independent{P: ones(cell.NumUE())})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	pf, err := sched.NewPF(cell.Env())
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &System{
		cfg:              cfg,
		cell:             cell,
		estimator:        access.NewEstimator(cell.NumUE()),
		spec:             spec,
		refreshThreshold: cfg.T,
		gateMinSamples:   max(1, cfg.T/4),
		driftThreshold:   defaultDriftThreshold,
		aa:               aa,
		pf:               pf,
		active:           spec,
		ladder:           LadderSpeculative,
		inj:              cell.Faults(),
		recentSched:      make([]int, cell.NumUE()),
		recentAccess:     make([]int, cell.NumUE()),
	}, nil
}

func ones(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = 1
	}
	return p
}

// Run alternates measurement and speculative phases over the cell's
// whole horizon and returns the report. It is RunContext with a
// background context.
func (s *System) Run() (*Report, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with caller-controlled cancellation: a fired ctx
// ends the run between cycle steps with an error wrapping ErrCanceled.
// Inference failures do NOT end the run — each cycle passes its
// blueprint through a confidence gate and, on failure, steps down the
// degradation ladder (speculative BLU → access-aware PF → native PF)
// for that cycle, escalating to a full re-measurement after repeated
// trips. A recovered cycle climbs straight back to speculative.
func (s *System) RunContext(ctx context.Context) (*Report, error) {
	rep := &Report{Speculative: &sim.Metrics{
		Scheduler: s.spec.Name(),
		BitsPerUE: make([]float64, s.cell.NumUE()),
		Outcomes:  make(map[lte.Outcome]int),
	}}
	sf := 0
	horizon := s.cell.Subframes()
	for sf < horizon {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
		// Measurement phase, sized by what the estimator still needs. A
		// phase entered after a blueprint already exists is a refresh:
		// either refreshThreshold found under-sampled pairs or a drift
		// reset discarded the statistics.
		refresh := rep.FinalTopology != nil
		measStart := time.Now()
		msf, err := s.measurementPhase(sf, horizon)
		if err != nil {
			return nil, err
		}
		if msf > 0 {
			obsMeasTimer.Record(time.Since(measStart))
			obsMeasPhases.Inc()
			obsMeasSubframes.Add(int64(msf))
			if refresh {
				obsRefreshPhases.Inc()
			}
			rep.Phases = append(rep.Phases, Phase{Kind: PhaseMeasurement, Subframes: msf})
			rep.MeasurementSubframes += msf
			sf += msf
		}
		if sf >= horizon {
			break
		}

		// Quarantine poisoned pair statistics before they reach
		// inference: one inconsistent pair warps the whole constraint
		// system (Section 3.4).
		quarantined := s.estimator.Quarantine(quarantineTolerance)
		obsQuarantined.Add(int64(quarantined))
		meas := s.estimator.Measurements()

		// Blueprint behind the confidence gate and pick the ladder rung.
		inferStart := time.Now()
		// A refresh cycle seeds inference with the standing blueprint: the
		// measurement delta since last cycle is usually small, so the warm
		// repair converges in a fraction of a cold multi-start (and exact
		// ties keep the previous topology — no flapping).
		dec, err := s.decideCycle(ctx, sf, meas, rep.FinalTopology)
		if err != nil {
			return nil, err
		}
		obsInferTimer.Record(time.Since(inferStart))
		obsInferences.Inc()
		var truth *blueprint.Topology
		if dec.level == LadderSpeculative {
			s.spec.SetDistribution(joint.NewCalculator(dec.res.Topology))
			rep.FinalTopology = dec.res.Topology
			truth = s.cell.GroundTruthAt(sf)
		} else if dec.level == LadderAccessAware {
			// The marginals p(i) are estimated from far more samples than
			// any pair and survive most corruption; the access-aware rung
			// uses them under an independence assumption.
			s.aa.SetDistribution(&joint.Independent{P: append([]float64(nil), meas.P...)})
		}
		s.setScheduler(dec.level)
		baseline := append([]float64(nil), meas.P...)

		// Scheduling phase at the chosen rung, with drift tracking for
		// §3.5 dynamics.
		s.resetRecent()
		end := sf + s.cfg.L
		if end > horizon {
			end = horizon
		}
		specStart := time.Now()
		metrics := sim.Run(s.cell, s.active, sf, end, func(osf int, schedule *lte.Schedule, results []lte.RBResult) {
			s.recordObservation(osf, schedule, results)
		})
		obsSpecTimer.Record(time.Since(specStart))
		obsSpecPhases.Inc()
		obsSpecSubframes.Add(int64(metrics.Subframes))
		drift := s.drift(baseline)
		obsDriftGauge.Set(drift)
		detected := drift > s.driftThreshold
		if detected {
			// Stationarity broke (mobility, traffic change): discard
			// stale statistics so the next cycle re-measures.
			s.estimator.Reset()
			obsDriftResets.Inc()
		}
		ph := Phase{
			Kind:             PhaseSpeculative,
			Subframes:        metrics.Subframes,
			Metrics:          metrics,
			Drift:            drift,
			DriftDetected:    detected,
			Ladder:           dec.level,
			GateTripped:      dec.tripped,
			GateReason:       dec.reason,
			InferRetries:     dec.retries,
			QuarantinedPairs: quarantined,
		}
		if dec.res != nil {
			ph.Inferred = dec.res.Topology
			ph.InferenceAccuracy = blueprint.Accuracy(truth, dec.res.Topology)
		}
		rep.Phases = append(rep.Phases, ph)
		rep.SpeculativeSubframes += metrics.Subframes
		accumulate(rep.Speculative, metrics)
		sf = end
	}
	finalizeAggregate(rep.Speculative)
	return rep, nil
}

func (s *System) resetRecent() {
	for i := range s.recentSched {
		s.recentSched[i], s.recentAccess[i] = 0, 0
	}
}

// drift returns the largest divergence between a client's observed
// access rate in the last speculative phase and its access probability
// as measured when the phase's blueprint was built, over clients with
// enough observations to judge.
func (s *System) drift(baseline []float64) float64 {
	const minObs = 300
	var worst float64
	for i := range s.recentSched {
		if s.recentSched[i] < minObs {
			continue
		}
		observed := float64(s.recentAccess[i]) / float64(s.recentSched[i])
		if d := abs(observed - baseline[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// measurementPhase runs Algorithm 1 scheduling from subframe start until
// every pair has refreshThreshold samples, returning subframes consumed.
// On the first cycle this is ≈ t_max; later cycles are much shorter
// because speculative subframes already contributed samples.
func (s *System) measurementPhase(start, horizon int) (int, error) {
	n := s.cell.NumUE()
	if n < 2 {
		return 0, nil
	}
	need := false
	for i := 0; i < n && !need; i++ {
		for j := i + 1; j < n; j++ {
			if s.estimator.Samples(i, j) < s.refreshThreshold {
				need = true
				break
			}
		}
	}
	if !need {
		return 0, nil
	}
	env := s.cell.Env()
	plan, err := access.BuildPlan(access.PlanOptions{N: n, K: env.K, T: s.cfg.T})
	if err != nil {
		return 0, fmt.Errorf("%w: %w", ErrMeasurementInfeasible, err)
	}
	used := 0
	for _, clients := range plan.Subframes {
		sf := start + used
		if sf >= horizon {
			break
		}
		schedule := measurementSchedule(clients, env.NumRB)
		results := s.cell.Step(sf, schedule)
		s.recordObservation(sf, schedule, results)
		used++
		// Data still flows during measurement subframes; it is simply
		// not optimized for utility, so we do not count its metrics in
		// the speculative aggregate.
	}
	return used, nil
}

// measurementSchedule spreads the phase's clients round-robin over the
// RB units: the schedule is optimized for observation, not throughput.
func measurementSchedule(clients []int, numRB int) *lte.Schedule {
	sch := lte.NewSchedule(numRB)
	if len(clients) == 0 {
		return sch
	}
	for b := 0; b < numRB; b++ {
		sch.RB[b] = []int{clients[b%len(clients)]}
	}
	return sch
}

// recordObservation feeds one subframe's outcome into the estimator:
// every distinct scheduled client is an observation, and a client
// counts as having accessed iff the eNB received its pilot anywhere
// (any outcome other than blocked, Section 3.3). The fault injector
// sits between the air and the estimator: a dropped subframe never
// reaches it, and flipped clients feed the inverted outcome — both the
// estimator and the drift detector see the corrupted view, exactly as a
// controller with a broken measurement path would.
func (s *System) recordObservation(sf int, _ *lte.Schedule, results []lte.RBResult) {
	if results == nil {
		return // eNB's own LBT deferred: no client CCA was observed
	}
	if s.inj != nil && s.inj.DropObservation(sf) {
		return
	}
	var scheduled []int
	seen := make(map[int]bool)
	var accessed blueprint.ClientSet
	for _, res := range results {
		for i, ue := range res.Scheduled {
			if !seen[ue] {
				seen[ue] = true
				scheduled = append(scheduled, ue)
			}
			if res.Outcomes[i] != lte.OutcomeBlocked {
				accessed = accessed.Add(ue)
			}
		}
	}
	if len(scheduled) == 0 {
		return
	}
	if s.inj != nil {
		if flip := s.inj.FlipOutcomes(sf); !flip.Empty() {
			for _, ue := range scheduled {
				if flip.Has(ue) {
					if accessed.Has(ue) {
						accessed = accessed.Remove(ue)
					} else {
						accessed = accessed.Add(ue)
					}
				}
			}
		}
	}
	s.estimator.Record(scheduled, accessed)
	for _, ue := range scheduled {
		s.recentSched[ue]++
		if accessed.Has(ue) {
			s.recentAccess[ue]++
		}
	}
}

func accumulate(dst, src *sim.Metrics) {
	w := float64(src.Subframes)
	dst.TotalBits += src.TotalBits
	dst.RBUtilization = weightedMerge(dst.RBUtilization, float64(dst.Subframes), src.RBUtilization, w)
	dst.DoFUtilization = weightedMerge(dst.DoFUtilization, float64(dst.Subframes), src.DoFUtilization, w)
	dst.FullyUtilizedSubframes = weightedMerge(dst.FullyUtilizedSubframes, float64(dst.Subframes), src.FullyUtilizedSubframes, w)
	dst.Subframes += src.Subframes
	dst.ENBDeferrals += src.ENBDeferrals
	for i := range src.BitsPerUE {
		dst.BitsPerUE[i] += src.BitsPerUE[i]
	}
	for k, v := range src.Outcomes {
		dst.Outcomes[k] += v
	}
}

func weightedMerge(a, wa, b, wb float64) float64 {
	if wa+wb == 0 {
		return 0
	}
	return (a*wa + b*wb) / (wa + wb)
}

func finalizeAggregate(m *sim.Metrics) {
	if m.Subframes > 0 {
		m.ThroughputMbps = m.TotalBits / (float64(m.Subframes) * 1000)
	}
	m.JainFairness = sim.JainIndex(m.BitsPerUE)
}

package core

import (
	"context"
	"errors"
	"fmt"

	"blu/internal/blueprint"
	"blu/internal/obs"
	"blu/internal/sched"
)

// Sentinel failures, matchable with errors.Is. Inference failures are
// deliberately NOT among the errors a run returns: the degradation
// ladder absorbs them (the controller falls back to a measurement-free
// scheduler for the cycle) and only surfaces them through Phase records
// and obs counters.
var (
	// ErrCellRequired is returned by NewSystem without a cell.
	ErrCellRequired = errors.New("core: cell is required")
	// ErrMeasurementInfeasible wraps measurement-plan construction
	// failures (Algorithm 1 cannot cover the pairs).
	ErrMeasurementInfeasible = errors.New("core: measurement plan infeasible")
	// ErrCanceled wraps the context error when RunContext is cancelled
	// or times out mid-run.
	ErrCanceled = errors.New("core: run canceled")
	// ErrInferenceFailed wraps the final inference error of a cycle that
	// exhausted its retries; it appears in Phase.GateReason
	// classification and obs counters, never in RunContext's return.
	ErrInferenceFailed = errors.New("core: inference failed")
)

// Degradation-ladder telemetry: how often the confidence gate tripped,
// what the controller fell back to, and how hard inference had to be
// retried — the counters the chaos suite asserts recovery on.
var (
	obsGateTrips         = obs.GetCounter("core_gate_trips_total")
	obsLadderLevel       = obs.GetGauge("core_ladder_level")
	obsFallbackPhases    = obs.GetCounter("core_fallback_phases_total")
	obsInferRetries      = obs.GetCounter("core_infer_retries_total")
	obsInferFailures     = obs.GetCounter("core_infer_failures_total")
	obsQuarantined       = obs.GetCounter("core_quarantined_pairs_total")
	obsEscalations       = obs.GetCounter("core_escalations_total")
	obsSchedulerSwitches = obs.GetCounter("core_scheduler_switches_total")
)

// LadderLevel is the controller's graceful-degradation ladder: each
// cycle runs at the highest level its blueprint confidence supports.
type LadderLevel int

// Ladder levels, best first.
const (
	// LadderSpeculative schedules with the full BLU speculative
	// scheduler over the inferred joint distribution.
	LadderSpeculative LadderLevel = iota
	// LadderAccessAware drops to the Eqn-5 access-aware PF using only
	// the measured marginals p(i) — no blueprint required.
	LadderAccessAware
	// LadderPF drops to native PF: no interference knowledge at all,
	// the floor the chaos suite measures degradation against.
	LadderPF
)

// String implements fmt.Stringer.
func (l LadderLevel) String() string {
	switch l {
	case LadderSpeculative:
		return "speculative"
	case LadderAccessAware:
		return "access-aware"
	default:
		return "pf"
	}
}

// Gate-trip reasons recorded in Phase.GateReason. Fixed strings, not
// error text: Phase records must be byte-identical across runs for the
// determinism contract, and error strings can embed timing detail.
const (
	gateReasonInferError = "inference-error"
	gateReasonDeadline   = "inference-deadline"
	gateReasonSamples    = "low-samples"
	gateReasonViolation  = "high-violation"
)

// cycleDecision is the outcome of one cycle's blueprint attempt: the
// ladder level to run at, the inference result when the gate passed,
// and the trip bookkeeping when it did not.
type cycleDecision struct {
	level   LadderLevel
	res     *blueprint.InferResult
	tripped bool
	reason  string
	retries int
}

// decideCycle runs gated inference for the cycle starting at subframe
// sf and picks the ladder level. Only a fired parent context is a run
// error; every inference failure degrades instead. warm, when non-nil,
// is the previous cycle's blueprint, seeding the §3.7 refresh
// inference so a small drift costs a small repair.
func (s *System) decideCycle(ctx context.Context, sf int, m *blueprint.Measurements, warm *blueprint.Topology) (cycleDecision, error) {
	d := cycleDecision{level: LadderSpeculative}
	res, retries, err := s.inferWithRetry(ctx, sf, m, warm)
	d.retries = retries
	if err != nil {
		if ctx.Err() != nil {
			return d, fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
		}
		obsInferFailures.Inc()
		d.reason = gateReasonInferError
		if errors.Is(err, context.DeadlineExceeded) {
			d.reason = gateReasonDeadline
		}
	} else {
		d.res = res
		if n := s.minPairSamples(); n >= 0 && n < s.gateMinSamples {
			d.reason = gateReasonSamples
		} else if res.MaxViolation > gateMaxViolation {
			d.reason = gateReasonViolation
		}
	}

	if d.reason == "" {
		s.consecTrips = 0
		return d, nil
	}

	// Gate tripped: step down the ladder — one level on the first
	// consecutive trip, to the floor after that — and escalate to a full
	// re-measurement once escalateAfter consecutive cycles failed (the
	// statistics themselves are suspect, not just this blueprint).
	d.tripped = true
	d.res = nil
	s.consecTrips++
	obsGateTrips.Inc()
	if s.consecTrips == 1 {
		d.level = LadderAccessAware
	} else {
		d.level = LadderPF
	}
	if s.consecTrips%escalateAfter == 0 {
		s.estimator.Reset()
		obsEscalations.Inc()
	}
	return d, nil
}

// inferWithRetry attempts topology inference under the per-inference
// deadline, backing off to fewer random starts and perturbations on
// each retry — a failed attempt most often means the budget was too
// ambitious for the deadline, so the retry asks for less. The fault
// injector may install a per-iteration stall hook and shrink the
// deadline while its stall window covers sf.
func (s *System) inferWithRetry(ctx context.Context, sf int, m *blueprint.Measurements, warm *blueprint.Topology) (*blueprint.InferResult, int, error) {
	// The knobs that back off start from the blueprint defaults spelled
	// out, so halving does not re-default 0 back up to 8.
	opts := blueprint.InferOptions{
		WarmStart:     warm,
		Parallelism:   s.inferParallelism,
		RandomStarts:  8,
		Perturbations: 4,
	}
	deadline := inferTimeout
	if s.inj != nil {
		opts.IterationHook = s.inj.InferStall(sf)
		if d := s.inj.InferDeadline(sf); d > 0 {
			deadline = d
		}
	}
	const attempts = 1 + inferRetries
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		ictx, cancel := context.WithTimeout(ctx, deadline)
		res, err := blueprint.InferContext(ictx, m, opts)
		cancel()
		if err == nil {
			return res, attempt, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The parent fired, not the per-attempt deadline: retrying
			// cannot help and the run itself is being cancelled.
			return nil, attempt, err
		}
		if attempt < attempts-1 {
			obsInferRetries.Inc()
			opts.RandomStarts = max(1, opts.RandomStarts/2)
			opts.Perturbations = max(1, opts.Perturbations/2)
		}
	}
	return nil, attempts - 1, fmt.Errorf("%w: %w", ErrInferenceFailed, lastErr)
}

// minPairSamples returns the smallest per-pair sample count, or -1 when
// the cell has no pairs to gate on.
func (s *System) minPairSamples() int {
	n := s.cell.NumUE()
	if n < 2 {
		return -1
	}
	minN := s.estimator.Samples(0, 1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if v := s.estimator.Samples(i, j); v < minN {
				minN = v
			}
		}
	}
	return minN
}

// schedulerOnLadder is what a ladder rung must support: scheduling plus
// PF warm-starting so switches preserve fairness state.
type schedulerOnLadder interface {
	sched.Scheduler
	WarmStart(avg []float64)
}

// setScheduler switches the active scheduler to the given ladder level,
// warm-starting the target's PF averages from the current scheduler so
// fairness state survives the switch.
func (s *System) setScheduler(level LadderLevel) {
	var next schedulerOnLadder
	switch level {
	case LadderSpeculative:
		next = s.spec
	case LadderAccessAware:
		next = s.aa
	default:
		next = s.pf
	}
	if next != s.active {
		avg := make([]float64, s.cell.NumUE())
		for i := range avg {
			avg[i] = s.active.AvgThroughput(i)
		}
		next.WarmStart(avg)
		obsSchedulerSwitches.Inc()
		s.active = next
	}
	s.ladder = level
	obsLadderLevel.Set(float64(level))
	if level != LadderSpeculative {
		obsFallbackPhases.Inc()
	}
}

// Package blu is an open reimplementation of BLU ("Blue-printing
// Interference for Robust LTE Access in Unlicensed Spectrum",
// CoNEXT 2017): a speculative uplink scheduler for LTE in unlicensed
// spectrum that over-schedules clients on the same resource blocks to
// compensate for hidden-terminal blocking, driven by a blueprint of the
// interference topology inferred from only pair-wise client access
// measurements.
//
// The package is a facade over the implementation packages:
//
//   - Topology, HiddenTerminal, ClientSet, Measurements and Infer are
//     the core blueprint model and the deterministic topology-inference
//     algorithm (paper Section 3.4).
//   - NewCalculator derives higher-order joint access distributions
//     from a blueprint by recursive topology conditioning (Section 3.6).
//   - NewPF, NewAccessAware and NewSpeculative are the three uplink
//     schedulers the paper compares (Eqns 1, 5 and 3–4).
//   - BuildMeasurementPlan is the Algorithm-1 measurement scheduler and
//     NewEstimator the access-distribution estimator (Section 3.3).
//   - NewCell / NewCellFromTrace simulate an unlicensed-band LTE uplink
//     cell with WiFi hidden terminals (the SDR-testbed substitute), and
//     NewSystem runs the full measurement→blueprint→speculative loop
//     (Fig 9).
//
// The package Example is an end-to-end tour; DESIGN.md has the system
// inventory.
package blu

import (
	"blu/internal/access"
	"blu/internal/blueprint"
	"blu/internal/core"
	"blu/internal/joint"
	"blu/internal/lte"
	"blu/internal/netsim"
	"blu/internal/sched"
	"blu/internal/sim"
	"blu/internal/topology"
	"blu/internal/trace"
)

// Core blueprint model (paper Section 3.4).
type (
	// Topology is the interference blueprint (h, Q, Z): hidden
	// terminals, their access probabilities, and their client edges.
	Topology = blueprint.Topology
	// HiddenTerminal is one interference source in a Topology.
	HiddenTerminal = blueprint.HiddenTerminal
	// ClientSet is a bitmask set of client (UE) indices.
	ClientSet = blueprint.ClientSet
	// Measurements holds individual p(i) and pair-wise p(i,j) client
	// access probabilities — the only input inference needs.
	Measurements = blueprint.Measurements
	// InferOptions tunes topology inference.
	InferOptions = blueprint.InferOptions
	// InferResult is the inference outcome.
	InferResult = blueprint.InferResult
)

// NewClientSet returns the set of the given client indices.
func NewClientSet(clients ...int) ClientSet { return blueprint.NewClientSet(clients...) }

// Infer blue-prints the hidden-terminal interference topology from
// pair-wise client access distributions (Section 3.4).
func Infer(m *Measurements, opts InferOptions) (*InferResult, error) {
	return blueprint.Infer(m, opts)
}

// InferenceAccuracy scores an inferred topology against ground truth
// with the paper's stringent exact-edge-set metric (Section 4.2.2).
func InferenceAccuracy(truth, inferred *Topology) float64 {
	return blueprint.Accuracy(truth, inferred)
}

// Joint access distributions (paper Section 3.6).
type (
	// Distribution yields joint client access probabilities.
	Distribution = joint.Distribution
	// Calculator computes them from a blueprint by recursive topology
	// conditioning.
	Calculator = joint.Calculator
)

// NewCalculator returns the conditional joint-distribution calculator
// over an inferred blueprint.
func NewCalculator(topo *Topology) *Calculator { return joint.NewCalculator(topo) }

// Schedulers (paper Section 3.2).
type (
	// SchedEnv describes a scheduling problem instance.
	SchedEnv = sched.Env
	// Scheduler is a per-subframe uplink scheduler.
	Scheduler = sched.Scheduler
	// PF is the native proportional-fair scheduler (Eqn 1).
	PF = sched.PF
	// AccessAware is the marginal-weighted PF baseline (Eqn 5).
	AccessAware = sched.AccessAware
	// Speculative is BLU's over-scheduling scheduler (Eqns 3–4).
	Speculative = sched.Speculative
)

// NewPF returns the native proportional-fair scheduler.
func NewPF(env SchedEnv) (*PF, error) { return sched.NewPF(env) }

// NewAccessAware returns the Eqn-5 access-aware baseline.
func NewAccessAware(env SchedEnv, dist Distribution) (*AccessAware, error) {
	return sched.NewAccessAware(env, dist)
}

// NewSpeculative returns BLU's speculative scheduler.
func NewSpeculative(env SchedEnv, dist Distribution) (*Speculative, error) {
	return sched.NewSpeculative(env, dist)
}

// Measurement phase (paper Section 3.3).
type (
	// MeasurementPlan schedules the pair-wise measurement subframes.
	MeasurementPlan = access.Plan
	// MeasurementPlanOptions parameterizes Algorithm 1.
	MeasurementPlanOptions = access.PlanOptions
	// Estimator turns per-subframe access observations into
	// Measurements.
	Estimator = access.Estimator
)

// BuildMeasurementPlan runs Algorithm 1.
func BuildMeasurementPlan(opts MeasurementPlanOptions) (*MeasurementPlan, error) {
	return access.BuildPlan(opts)
}

// NewEstimator returns an empty access-distribution estimator for n
// clients.
func NewEstimator(n int) *Estimator { return access.NewEstimator(n) }

// MeasurementLowerBound returns F_min = ⌈C(N,2)/C(K,2)·T⌉, the paper's
// bound on pair-wise measurement subframes.
func MeasurementLowerBound(n, k, t int) int { return access.FMin(n, k, t) }

// Simulation substrate (the WARP SDR testbed substitute).
type (
	// Scenario is a physical deployment of eNB, UEs and WiFi stations.
	Scenario = topology.Scenario
	// Cell is a simulated unlicensed-band LTE uplink cell.
	Cell = sim.Cell
	// CellConfig parameterizes cell simulation.
	CellConfig = sim.Config
	// Metrics aggregates one scheduler run.
	Metrics = sim.Metrics
	// Trace is a recorded channel/interference trace (Section 4.2).
	Trace = trace.Trace
	// ReplayConfig parameterizes trace replay.
	ReplayConfig = sim.ReplayConfig
	// Outcome classifies a grant's fate (Section 3.3 rules).
	Outcome = lte.Outcome
)

// Grant outcome classifications re-exported from the LTE substrate.
const (
	OutcomeIdle      = lte.OutcomeIdle
	OutcomeBlocked   = lte.OutcomeBlocked
	OutcomeCollision = lte.OutcomeCollision
	OutcomeFading    = lte.OutcomeFading
	OutcomeSuccess   = lte.OutcomeSuccess
)

// NewTestbedScenario builds the paper's Fig-1-style testbed deployment
// of nUE UEs in [1, 64] and nHT ≥ 0 WiFi stations.
func NewTestbedScenario(nUE, nHT int, seed uint64) (*Scenario, error) {
	return sim.NewTestbedScenario(nUE, nHT, seed)
}

// NewCell builds a simulated cell.
func NewCell(cfg CellConfig) (*Cell, error) { return sim.New(cfg) }

// NewCellFromTrace replays a recorded or combined trace.
func NewCellFromTrace(tr *Trace, rc ReplayConfig) (*Cell, error) {
	return sim.NewFromTrace(tr, rc)
}

// RunScheduler drives a scheduler over subframes [from, to) of a cell.
func RunScheduler(c *Cell, s Scheduler, from, to int) *Metrics {
	return sim.Run(c, s, from, to, nil)
}

// EstimateMeasurements computes the empirical individual and pair-wise
// access distributions from a simulated cell's full access trace — the
// idealized measurement a maximally long Section-3.3 phase converges
// to. Production estimation from scheduled observations is Estimator.
func EstimateMeasurements(c *Cell) *Measurements { return netsim.MeasureFromMasks(c) }

// CombineTraceUEs merges traces into a larger emulated UE topology.
func CombineTraceUEs(traces ...*Trace) (*Trace, error) { return trace.CombineUEs(traces...) }

// CombineTraceInterference overlays extra interference onto a base
// trace's UE set-up.
func CombineTraceInterference(base *Trace, extras ...*Trace) (*Trace, error) {
	return trace.CombineInterference(base, extras...)
}

// Full BLU controller (paper Fig 9).
type (
	// System alternates measurement and speculative phases on a cell.
	System = core.System
	// SystemConfig tunes the controller.
	SystemConfig = core.Config
)

// NewSystem builds the BLU controller for a cell.
func NewSystem(cfg SystemConfig, cell *Cell) (*System, error) {
	return core.NewSystem(cfg, cell)
}

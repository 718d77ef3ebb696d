package experiments

import (
	"blu/internal/blueprint"
	"blu/internal/core"
	"blu/internal/joint"
	"blu/internal/lte"
	"blu/internal/netsim"
	"blu/internal/sched"
	"blu/internal/sim"
	"blu/internal/stats"
)

// A sweep declares one grid of simulations: a cell for every (axis
// point, replicate) trial and the arms run on it. Every table that
// reads those simulations renders from one run of the sweep.
type sweep struct {
	// points is the number of axis points; the declaration maps a point
	// index to its axis values. reps is the number of replicates per
	// point (the placements a table averages over; 0 means 1).
	points, reps int
	// seed is the cell seed of replicate r at point x.
	seed func(x, r int) uint64
	// cell builds point x's cell from a trial seed.
	cell func(x int, seed uint64) (*sim.Cell, error)
	// subframes is the horizon every arm runs over; downlink runs the
	// arms on the downlink instead of the uplink.
	subframes int
	downlink  bool
	// arms run in order on every trial's cell.
	arms []arm
}

// result holds a sweep's outcomes: trial (x, r) at x·reps+r, one
// outcome per arm in declaration order.
type result struct {
	reps   int
	trials [][]outcome
}

// outcome is one arm's run over one trial's cell.
type outcome struct {
	*sim.Metrics
	// report is the controller's full report (controller arms only),
	// and faultEnd the end of its cell's fault window (faulted cells
	// only).
	report   *core.Report
	faultEnd int
}

// run fans the sweep's trials out over the configured parallelism; each
// trial builds its cell and runs the arms on it in order.
func (s *sweep) run(o Options) (*result, error) {
	res := &result{reps: max(s.reps, 1)}
	res.trials = make([][]outcome, s.points*res.reps)
	err := o.forEachTrial(len(res.trials), func(i int) error {
		x, r := i/res.reps, i%res.reps
		cell, err := s.cell(x, s.seed(x, r))
		if err != nil {
			return err
		}
		tr := &trial{cell: cell, sweep: s, inferSeed: o.Seed}
		outs := make([]outcome, len(s.arms))
		for a, run := range s.arms {
			if outs[a], err = run(tr); err != nil {
				return err
			}
		}
		res.trials[i] = outs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// at returns arm a's outcome on the first replicate of point x.
func (res *result) at(x, a int) outcome { return res.trials[x*res.reps][a] }

// mean averages metric over arm a's outcomes on point x's replicates.
func (res *result) mean(x, a int, metric func(outcome) float64) float64 {
	vals := make([]float64, res.reps)
	for r := range vals {
		vals[r] = metric(res.trials[x*res.reps+r][a])
	}
	return stats.Mean(vals)
}

// trial is one cell of a sweep with the distributions its arms share,
// each built at most once: the inferred blueprint is solved once per
// cell, not once per arm.
type trial struct {
	cell      *sim.Cell
	sweep     *sweep
	inferSeed uint64
	perfect   joint.Distribution
	inferred  joint.Distribution
}

// An arm runs one scheduler over a trial's whole horizon.
type arm func(tr *trial) (outcome, error)

// A source is the joint access distribution an AA or BLU arm schedules
// against.
type source func(tr *trial) (joint.Distribution, error)

func (tr *trial) run(s sched.Scheduler) outcome {
	if tr.sweep.downlink {
		return outcome{Metrics: sim.RunDL(tr.cell, s, 0, tr.sweep.subframes)}
	}
	return outcome{Metrics: sim.Run(tr.cell, s, 0, tr.sweep.subframes, nil)}
}

// pf is the native proportional-fair scheduler.
func pf(tr *trial) (outcome, error) {
	s, err := sched.NewPF(tr.cell.Env())
	if err != nil {
		return outcome{}, err
	}
	return tr.run(s), nil
}

// aa is access-aware PF (Eqn 5) over dist.
func aa(dist source) arm { return distArm(sched.NewAccessAware, dist) }

// blu is BLU's speculative scheduler over dist.
func blu(dist source) arm { return distArm(sched.NewSpeculative, dist) }

func distArm[S sched.Scheduler](build func(sched.Env, joint.Distribution) (S, error), dist source) arm {
	return func(tr *trial) (outcome, error) {
		d, err := dist(tr)
		if err != nil {
			return outcome{}, err
		}
		s, err := build(tr.cell.Env(), d)
		if err != nil {
			return outcome{}, err
		}
		return tr.run(s), nil
	}
}

// controller runs the full BLU loop (measurement → blueprint →
// speculative phases of l subframes) through core.System; its metrics
// cover the speculative subframes.
func controller(l int) arm {
	return func(tr *trial) (outcome, error) {
		sys, err := core.NewSystem(core.Config{T: 40, L: l}, tr.cell)
		if err != nil {
			return outcome{}, err
		}
		rep, err := sys.Run()
		if err != nil {
			return outcome{}, err
		}
		o := outcome{Metrics: rep.Speculative, report: rep}
		if inj := tr.cell.Faults(); inj != nil {
			_, o.faultEnd = inj.Window()
		}
		return o, nil
	}
}

// perfect is the joint distribution computed directly from the cell's
// access trace (Fig 15's perfect knowledge).
func perfect(tr *trial) (joint.Distribution, error) {
	if tr.perfect == nil {
		tr.perfect = tr.cell.PerfectDistribution()
	}
	return tr.perfect, nil
}

// inferred is BLU's production distribution: estimate pair-wise
// measurements from the cell's access trace, infer the blueprint, and
// build the conditional calculator over it.
func inferred(tr *trial) (joint.Distribution, error) {
	if tr.inferred == nil {
		meas := netsim.MeasureFromMasks(tr.cell)
		inf, err := blueprint.Infer(meas, blueprint.InferOptions{Seed: tr.inferSeed, Tolerance: 0.03})
		if err != nil {
			return nil, err
		}
		tr.inferred = joint.NewCalculator(inf.Topology)
	}
	return tr.inferred, nil
}

// dlClean is the independent per-client downlink-clean distribution:
// the marginals HARQ NACK-rate feedback measures at the eNB.
func dlClean(tr *trial) (joint.Distribution, error) {
	p := make([]float64, tr.cell.NumUE())
	for i := range p {
		p[i] = tr.cell.DLCleanProb(i)
	}
	return &joint.Independent{P: p}, nil
}

// ratio is a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b > 0 {
		return a / b
	}
	return 0
}

// collisionRate is the share of a run's grant outcomes that collided.
func collisionRate(m *sim.Metrics) float64 {
	total := 0
	for _, c := range m.Outcomes {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(m.Outcomes[lte.OutcomeCollision]) / float64(total)
}

package sched

import (
	"blu/internal/joint"
	"blu/internal/lte"
)

// AccessAware is the Eqn-5 baseline: a weighted proportional-fair
// scheduler that multiplies each client's PF metric by its individual
// access probability p(i). Knowing only marginals, it can prefer
// clients that are rarely blocked but cannot over-schedule — shared
// hidden terminals between co-scheduled clients are invisible to it.
type AccessAware struct {
	st   *pfState
	dist joint.Distribution
}

// NewAccessAware returns an access-aware scheduler drawing marginal
// access probabilities from dist.
func NewAccessAware(env Env, dist joint.Distribution) (*AccessAware, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	return &AccessAware{st: newPFState(env, metricsAA), dist: dist}, nil
}

// Name implements Scheduler.
func (a *AccessAware) Name() string { return "AA" }

// AvgThroughput implements Scheduler.
func (a *AccessAware) AvgThroughput(i int) float64 { return a.st.r[i] }

// Observe implements Scheduler.
func (a *AccessAware) Observe(_ int, results []lte.RBResult) { a.st.observe(results) }

// SetDistribution swaps the access-probability source (e.g. after a new
// measurement phase).
func (a *AccessAware) SetDistribution(dist joint.Distribution) { a.dist = dist }

// WarmStart seeds R_i from another scheduler's averages (avg[i] from
// AvgThroughput(i)); non-positive entries are ignored. Used when the
// degradation ladder switches schedulers mid-run.
func (a *AccessAware) WarmStart(avg []float64) { a.st.warmStart(avg) }

// Schedule implements Scheduler: per RB unit, greedily grow a group of
// up to M clients maximizing Σ p(i)·r_{i,b,|G|}/R_i (Eqn 5).
func (a *AccessAware) Schedule(_ int) *lte.Schedule {
	env := a.st.env
	a.st.beginSubframe()
	sch := lte.NewSchedule(env.NumRB)
	arena := make([]int, 0, env.NumRB*env.M)
	for b := 0; b < env.NumRB; b++ {
		group := a.greedyGroup(b)
		if len(group) == 0 {
			continue
		}
		scale := env.groupScale(len(group))
		for _, ue := range group {
			a.st.budgetNote(ue)
			// Provisional load uses the expected service.
			a.st.noteGrant(ue, a.dist.Marginal(ue)*env.Rate(ue, b)*scale)
		}
		arena, sch.RB[b] = commitGroup(arena, group)
	}
	return sch
}

// greedyGroup is greedyPFGroup with access-weighted metrics: the group's
// Σ p·r/R sum is maintained incrementally, and the returned slice is
// scheduler scratch, valid until the next greedy call.
func (a *AccessAware) greedyGroup(b int) []int {
	env := a.st.env
	group := a.st.group[:0]
	in := a.st.in
	sum := 0.0 // Σ_{g∈G} p(g)·r_{g,b}/R_g, scale factored out
	current := 0.0
	for len(group) < env.M {
		bestUE, bestUtil := -1, current
		scale := env.groupScale(len(group) + 1)
		for ue := 0; ue < env.NumUE; ue++ {
			if in[ue] || !a.st.budgetAllows(ue) || !env.hasBacklog(ue, a.st.served[ue]) {
				continue
			}
			util := (sum + a.dist.Marginal(ue)*env.Rate(ue, b)/a.st.metricDenom(ue)) * scale
			if util > bestUtil+1e-15 {
				bestUE, bestUtil = ue, util
			}
		}
		if bestUE < 0 {
			break
		}
		group = append(group, bestUE)
		in[bestUE] = true
		sum += a.dist.Marginal(bestUE) * env.Rate(bestUE, b) / a.st.metricDenom(bestUE)
		current = bestUtil
	}
	for _, g := range group {
		in[g] = false
	}
	a.st.group = group
	return group
}

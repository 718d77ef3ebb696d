// Package sched implements the three uplink schedulers the paper
// compares (Section 3.2):
//
//   - PF: the native proportional-fair scheduler of Eqn 1, which picks
//     per-RB user groups (up to the antenna count M) maximizing marginal
//     utility r_{i,b}/R_i, blind to unlicensed-band interference.
//   - AccessAware: the weighted PF baseline of Eqn 5, which scales each
//     client's metric by its individual access probability p(i) but
//     cannot over-schedule (it lacks joint distributions).
//   - Speculative: BLU's scheduler (Eqns 3–4), which over-schedules up
//     to f·M clients per RB, chosen greedily to maximize the expected
//     utility under the joint access distribution of the group —
//     leveraging interference diversity while avoiding collision-prone
//     groupings.
//
// All three share the PF average-throughput state R_i (EWMA, Section
// 3.2.1) and the control-signaling limit of K distinct UEs per subframe.
package sched

import (
	"fmt"
	"math"

	"blu/internal/blueprint"
	"blu/internal/lte"
	"blu/internal/obs"
)

// Env describes the scheduling problem instance shared by all
// schedulers.
type Env struct {
	// NumUE is the number of clients N in the cell.
	NumUE int
	// NumRB is the number of schedulable resource-block units per
	// subframe (the simulator schedules at RB-group granularity).
	NumRB int
	// M is the number of eNB antennas (max resolvable streams per RB).
	M int
	// K caps distinct UEs per subframe (control signaling, §3.3).
	// K <= 0 means unlimited.
	K int
	// Alpha is the PF EWMA window (Section 3.2.1); any window >= 1 is
	// valid (1 = no memory), typical 100–1000. Values below 1 —
	// including the zero value — select the default of 100; the
	// defaulting happens in one place (newPFState) so PF, AccessAware,
	// and Speculative always agree on the same Env.
	Alpha float64
	// Rate returns UE ue's estimated single-stream goodput (bits per RB
	// unit per subframe) on RB unit b in the current subframe, as the
	// eNB would estimate from channel state.
	Rate func(ue, b int) float64
	// GroupScale derates the per-stream rate when n streams share an RB
	// (MU-MIMO DoF sharing); GroupScale(1) must be 1. Nil means no
	// derating.
	GroupScale func(n int) float64
	// Backlog, if non-nil, returns the bits client ue currently has
	// queued — the footnote-1 finite-buffer coupling constraint. A
	// scheduler stops granting a client within a subframe once its
	// provisional grants cover the backlog; nil means full-buffer
	// traffic (the paper's evaluation setting).
	Backlog func(ue int) float64
}

// hasBacklog reports whether ue still has data beyond the bits already
// provisionally granted this subframe.
func (e Env) hasBacklog(ue int, granted float64) bool {
	if e.Backlog == nil {
		return true
	}
	return e.Backlog(ue) > granted
}

func (e Env) groupScale(n int) float64 {
	if e.GroupScale == nil || n <= 1 {
		return 1
	}
	return e.GroupScale(n)
}

func (e Env) validate() error {
	if e.NumUE <= 0 || e.NumUE > blueprint.MaxClients {
		return fmt.Errorf("sched: NumUE %d out of range", e.NumUE)
	}
	if e.NumRB <= 0 {
		return fmt.Errorf("sched: NumRB %d out of range", e.NumRB)
	}
	if e.M <= 0 {
		return fmt.Errorf("sched: M %d out of range", e.M)
	}
	if e.Rate == nil {
		return fmt.Errorf("sched: Rate function is required")
	}
	return nil
}

// Scheduler is a per-subframe uplink scheduler.
type Scheduler interface {
	// Name identifies the scheduler in experiment output.
	Name() string
	// Schedule allocates the RB units of uplink subframe sf.
	Schedule(sf int) *lte.Schedule
	// Observe feeds back the eNB receive results of subframe sf so the
	// scheduler can update its PF averages.
	Observe(sf int, results []lte.RBResult)
	// AvgThroughput returns the PF average R_i (bits per subframe) of
	// client i.
	AvgThroughput(i int) float64
}

// pfState is the shared PF bookkeeping: R_i per client plus the
// intra-subframe provisional load used to spread allocations across
// clients within one subframe. It also owns the per-scheduler scratch
// buffers that make Schedule and Observe allocation-free in steady
// state (DESIGN.md §11): each buffer is sized once at construction and
// reset — never reallocated — per subframe or per RB.
type pfState struct {
	env     Env
	r       []float64 // R_i, bits per subframe (EWMA)
	served  []float64 // bits granted in the current subframe
	metrics *schedMetrics

	// Scratch. delivered backs observe's per-client bit totals.
	// budgetUsed/budgetN track the K distinct-UE control budget within
	// the current subframe (reset in beginSubframe). in flags greedy
	// group membership within one RB (cleared on greedy exit). group is
	// the group under construction; callers copy it out before the next
	// greedy call reuses it.
	delivered  []float64
	budgetUsed []bool
	budgetN    int
	in         []bool
	group      []int
	warm       bool // scratch has served at least one subframe
}

// maxSpeculativeGroup caps a speculative RB group: the Eqn-4
// expected-utility enumeration is 2^|G|, so groups (and the scratch
// sized for them) stop at 16 members.
const maxSpeculativeGroup = 16

// newPFState is the single place Env.Alpha is defaulted: windows >= 1
// are taken as given (Alpha documents 1 as valid), anything below —
// including the zero value — becomes 100, identically for all three
// schedulers. metrics is the scheduler flavor's handle set.
func newPFState(env Env, metrics *schedMetrics) *pfState {
	if env.Alpha < 1 {
		env.Alpha = 100
	}
	s := &pfState{
		env:        env,
		r:          make([]float64, env.NumUE),
		served:     make([]float64, env.NumUE),
		metrics:    metrics,
		delivered:  make([]float64, env.NumUE),
		budgetUsed: make([]bool, env.NumUE),
		in:         make([]bool, env.NumUE),
		group:      make([]int, 0, maxSpeculativeGroup),
	}
	for i := range s.r {
		s.r[i] = 1 // avoid the 1/R_i singularity before first service
	}
	return s
}

// schedMetrics is one scheduler flavor's obs handles. There are exactly
// three flavors, so the three sets resolve once at package init and a
// constructor call (one per served subframe in internal/serve) looks
// nothing up; recording is atomic and gated on obs.Enabled, so hot
// paths pay nothing when the layer is off.
type schedMetrics struct {
	subframes    *obs.Counter // scheduled subframes
	grants       *obs.Counter // (RB unit, UE) grants issued
	success      *obs.Counter // grants decoded
	blocked      *obs.Counter // grants silenced by the UE's CCA
	collision    *obs.Counter // grants lost to over-scheduling collisions
	fading       *obs.Counter // grants lost to channel fading
	wastedRB     *obs.Counter // granted RB units with no decoded stream
	scratchReuse *obs.Counter // subframes scheduled on reused scratch
}

var (
	metricsPF  = newSchedMetrics("pf")
	metricsAA  = newSchedMetrics("aa")
	metricsBLU = newSchedMetrics("blu")
)

func newSchedMetrics(flavor string) *schedMetrics {
	p := "sched_" + flavor + "_"
	return &schedMetrics{
		subframes:    obs.GetCounter(p + "subframes_total"),
		grants:       obs.GetCounter(p + "grants_total"),
		success:      obs.GetCounter(p + "success_total"),
		blocked:      obs.GetCounter(p + "blocked_total"),
		collision:    obs.GetCounter(p + "collision_total"),
		fading:       obs.GetCounter(p + "fading_total"),
		wastedRB:     obs.GetCounter(p + "wasted_rb_total"),
		scratchReuse: obs.GetCounter(p + "scratch_reuse_total"),
	}
}

// record classifies one subframe's receive results into the outcome
// counters. Counts accumulate locally so each counter takes one atomic
// add per subframe, not one per grant.
func (m *schedMetrics) record(results []lte.RBResult) {
	var succ, blk, col, fad, wasted int64
	for _, res := range results {
		if len(res.Scheduled) == 0 {
			continue
		}
		if !res.Utilized() {
			wasted++
		}
		for _, o := range res.Outcomes {
			switch o {
			case lte.OutcomeSuccess:
				succ++
			case lte.OutcomeBlocked:
				blk++
			case lte.OutcomeCollision:
				col++
			case lte.OutcomeFading:
				fad++
			}
		}
	}
	m.success.Add(succ)
	m.blocked.Add(blk)
	m.collision.Add(col)
	m.fading.Add(fad)
	m.wastedRB.Add(wasted)
}

// warmStart seeds the PF averages from another scheduler's R_i so a
// mid-run scheduler switch keeps the fairness state instead of
// rediscovering it from the 1-bit singularity guard.
func (s *pfState) warmStart(avg []float64) {
	for i := range s.r {
		if i < len(avg) && avg[i] > 0 {
			s.r[i] = avg[i]
		}
	}
}

// metricDenom is the PF denominator including this subframe's
// provisional grants, so one strong client does not absorb every RB of
// the subframe.
func (s *pfState) metricDenom(ue int) float64 {
	return math.Max(s.r[ue]+s.served[ue]/s.env.Alpha, 1e-9)
}

func (s *pfState) beginSubframe() {
	s.metrics.subframes.Inc()
	if s.warm {
		s.metrics.scratchReuse.Inc()
	}
	s.warm = true
	for i := range s.served {
		s.served[i] = 0
	}
	for i := range s.budgetUsed {
		s.budgetUsed[i] = false
	}
	s.budgetN = 0
}

// budgetAllows reports whether UE can still be introduced into the
// subframe under the K distinct-UE control limit.
func (s *pfState) budgetAllows(ue int) bool {
	if s.env.K <= 0 || s.budgetUsed[ue] {
		return true
	}
	return s.budgetN < s.env.K
}

func (s *pfState) budgetNote(ue int) {
	if !s.budgetUsed[ue] {
		s.budgetUsed[ue] = true
		s.budgetN++
	}
}

func (s *pfState) noteGrant(ue int, bits float64) {
	s.metrics.grants.Inc()
	s.served[ue] += bits
}

// observe applies the standard PF update
// R_i ← x_i/α + (1−1/α)·R_i for every client, with x_i the bits
// actually delivered this subframe.
func (s *pfState) observe(results []lte.RBResult) {
	if obs.Enabled() {
		s.metrics.record(results)
	}
	delivered := s.delivered
	for i := range delivered {
		delivered[i] = 0
	}
	for _, res := range results {
		for i, ue := range res.Scheduled {
			if ue >= 0 && ue < s.env.NumUE {
				delivered[ue] += res.Bits[i]
			}
		}
	}
	a := s.env.Alpha
	for i := range s.r {
		s.r[i] = delivered[i]/a + (1-1/a)*s.r[i]
	}
}

// commitGroup appends group to the arena and returns the extended arena
// plus the full-capacity sub-slice now holding the group. The arena is
// one allocation per Schedule call backing every RB's grant list, so
// the returned *lte.Schedule is independent of the scheduler's scratch
// (callers may retain it across Schedule calls).
func commitGroup(arena, group []int) ([]int, []int) {
	n := len(arena)
	arena = append(arena, group...)
	return arena, arena[n:len(arena):len(arena)]
}

// PF is the native proportional-fair scheduler of Eqn 1.
type PF struct {
	st *pfState
}

// NewPF returns a PF scheduler for env.
func NewPF(env Env) (*PF, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	return &PF{st: newPFState(env, metricsPF)}, nil
}

// Name implements Scheduler.
func (p *PF) Name() string { return "PF" }

// AvgThroughput implements Scheduler.
func (p *PF) AvgThroughput(i int) float64 { return p.st.r[i] }

// Observe implements Scheduler.
func (p *PF) Observe(_ int, results []lte.RBResult) { p.st.observe(results) }

// WarmStart seeds R_i from another scheduler's averages (avg[i] from
// AvgThroughput(i)); non-positive entries are ignored. Used when the
// degradation ladder switches schedulers mid-run.
func (p *PF) WarmStart(avg []float64) { p.st.warmStart(avg) }

// Schedule implements Scheduler: per RB unit, greedily grow a group of
// up to M clients maximizing Σ r_{i,b,|G|}/R_i.
func (p *PF) Schedule(_ int) *lte.Schedule {
	env := p.st.env
	p.st.beginSubframe()
	sch := lte.NewSchedule(env.NumRB)
	arena := make([]int, 0, env.NumRB*env.M)
	for b := 0; b < env.NumRB; b++ {
		group := greedyPFGroup(p.st, b)
		if len(group) == 0 {
			continue
		}
		scale := env.groupScale(len(group))
		for _, ue := range group {
			p.st.budgetNote(ue)
			p.st.noteGrant(ue, env.Rate(ue, b)*scale)
		}
		arena, sch.RB[b] = commitGroup(arena, group)
	}
	return sch
}

// greedyPFGroup builds the Eqn-1 group for RB b: add the client with the
// best marginal utility until utility stops increasing or M is reached.
// The group's Σ r/R sum is maintained incrementally (the |G|-dependent
// MU-MIMO scale factors out), so each greedy step costs O(N) instead of
// O(N·|G|). The returned slice is scheduler scratch, valid until the
// next greedy call.
func greedyPFGroup(st *pfState, b int) []int {
	env := st.env
	group := st.group[:0]
	in := st.in
	sum := 0.0 // Σ_{g∈G} r_{g,b}/R_g, scale factored out
	current := 0.0
	for len(group) < env.M {
		bestUE, bestUtil := -1, current
		scale := env.groupScale(len(group) + 1)
		for ue := 0; ue < env.NumUE; ue++ {
			if in[ue] || !st.budgetAllows(ue) || !env.hasBacklog(ue, st.served[ue]) {
				continue
			}
			util := (sum + env.Rate(ue, b)/st.metricDenom(ue)) * scale
			if util > bestUtil+1e-15 {
				bestUE, bestUtil = ue, util
			}
		}
		if bestUE < 0 {
			break
		}
		group = append(group, bestUE)
		in[bestUE] = true
		sum += env.Rate(bestUE, b) / st.metricDenom(bestUE)
		current = bestUtil
	}
	for _, g := range group {
		in[g] = false
	}
	st.group = group
	return group
}

// Package access implements BLU's measurement phase (Section 3.3): the
// scheduling of measurement subframes that estimates all pair-wise
// client access distributions with close to the minimum number of
// subframes (Algorithm 1), and the estimator that turns per-subframe
// access observations into p(i) and p(i,j).
//
// The point of the phase is its overhead bound: with K distinct clients
// schedulable per subframe, all C(N,2) pairs can be covered T times in
// about F_min = ⌈C(N,2)/C(K,2)·T⌉ subframes — constant in the MU-MIMO
// order M, versus the O(N^{fM}) cost of measuring higher-order joint
// distributions directly.
package access

import (
	"fmt"
	"math"
	"math/bits"

	"blu/internal/blueprint"
)

// FMin returns the paper's lower bound ⌈C(N,2)/C(K,2)·T⌉ on measurement
// subframes needed to sample every client pair T times with K clients
// per subframe. K is clamped to N the way BuildPlan clamps it (a
// subframe cannot schedule more distinct clients than exist), and the
// result is floored at T: even a single subframe covering every pair
// must still be repeated T times to sample each pair T times.
func FMin(n, k, t int) int {
	if n < 2 || k < 2 || t <= 0 {
		return 0
	}
	if k > n {
		k = n
	}
	pairsAll := float64(n*(n-1)) / 2
	pairsPerSF := float64(k*(k-1)) / 2
	f := int(math.Ceil(pairsAll / pairsPerSF * float64(t)))
	return max(f, t)
}

// JointOverhead returns the minimum subframes needed to measure every
// k-client joint distribution T times (the ⌈C(N,k)/C(K,k)·T⌉ cost BLU
// avoids). It returns 0 if k > K (infeasible: such tuples can never be
// co-scheduled), mirroring the paper's infeasibility observation.
// Like FMin, the per-subframe budget is clamped to N and the result is
// floored at T.
func JointOverhead(n, schedK, tupleK, t int) int {
	if schedK > n {
		schedK = n
	}
	if tupleK > schedK || tupleK > n || tupleK < 1 || t <= 0 {
		return 0
	}
	f := int(math.Ceil(binom(n, tupleK) / binom(schedK, tupleK) * float64(t)))
	return max(f, t)
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// PlanOptions configures the measurement schedule.
type PlanOptions struct {
	// N is the number of clients.
	N int
	// K is the number of distinct clients schedulable per subframe.
	K int
	// T is the number of samples wanted per client pair.
	T int
	// MaxSubframes aborts planning if the greedy schedule exceeds it
	// (default 10·F_min, a safety valve only).
	MaxSubframes int
}

// Plan is the measurement-phase schedule: for each measurement subframe,
// the set of clients to co-schedule.
type Plan struct {
	// Subframes[t] lists the clients scheduled in measurement subframe t.
	Subframes [][]int
	// PairCounts[i][j] (i<j) is how many subframes co-scheduled the pair.
	PairCounts [][]int
}

// TMax returns the number of measurement subframes in the plan — the
// t_max of Section 3.7.
func (p *Plan) TMax() int { return len(p.Subframes) }

// BuildPlan runs Algorithm 1: in each measurement subframe it greedily
// schedules the K clients contributing the most measurement value — the
// clients whose pairs with the already-selected set have the fewest
// samples so far, scored with the logarithmic potential
// Σ log((1+c_j)/(1+T)) so every pair is sampled approximately uniformly
// often throughout the phase (usable even if cut short).
func BuildPlan(opts PlanOptions) (*Plan, error) {
	n, k, t := opts.N, opts.K, opts.T
	if n < 2 {
		return nil, fmt.Errorf("access: need at least 2 clients, got %d", n)
	}
	if k < 2 {
		return nil, fmt.Errorf("access: need K >= 2, got %d", k)
	}
	if t < 1 {
		return nil, fmt.Errorf("access: need T >= 1, got %d", t)
	}
	if k > n {
		k = n
	}
	maxSF := opts.MaxSubframes
	if maxSF <= 0 {
		maxSF = 10*FMin(n, k, t) + t
	}

	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
	}
	plan := &Plan{PairCounts: counts}

	// potential(c) is the marginal value of sampling a pair with count c
	// one more time: the increase of log((1+c)/(1+T)) toward zero.
	potential := func(c int) float64 {
		if c >= t {
			return 0 // already fully sampled: no value
		}
		return math.Log(float64(2+c)/float64(1+t)) - math.Log(float64(1+c)/float64(1+t))
	}

	done := func() bool {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if counts[i][j] < t {
					return false
				}
			}
		}
		return true
	}

	for !done() {
		if len(plan.Subframes) >= maxSF {
			return nil, fmt.Errorf("access: plan exceeded %d subframes (N=%d K=%d T=%d)", maxSF, n, k, t)
		}
		var sel []int
		in := make([]bool, n)
		// Seed with the endpoint of the globally least-sampled pair so
		// the first pick is not arbitrary.
		mi, mj := leastSampledPair(counts)
		sel = append(sel, mi, mj)
		in[mi], in[mj] = true, true
		for len(sel) < k {
			bestUE, bestVal := -1, math.Inf(-1)
			for ue := 0; ue < n; ue++ {
				if in[ue] {
					continue
				}
				v := 0.0
				for _, s := range sel {
					v += potential(counts[min(ue, s)][max(ue, s)])
				}
				if v > bestVal {
					bestUE, bestVal = ue, v
				}
			}
			if bestUE < 0 {
				break
			}
			sel = append(sel, bestUE)
			in[bestUE] = true
		}
		for ai, a := range sel {
			for _, b := range sel[ai+1:] {
				counts[min(a, b)][max(a, b)]++
			}
		}
		plan.Subframes = append(plan.Subframes, sel)
	}
	return plan, nil
}

func leastSampledPair(counts [][]int) (int, int) {
	n := len(counts)
	bi, bj, best := 0, 1, math.MaxInt
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if counts[i][j] < best {
				bi, bj, best = i, j, counts[i][j]
			}
		}
	}
	return bi, bj
}

// Estimator accumulates per-subframe access observations into the
// pair-wise measurements blueprint inference consumes. Any subframe in
// which a set of clients held grants can contribute — including
// speculative-phase subframes, which is how BLU keeps refreshing its
// estimates outside explicit measurement phases (Section 3.7).
type Estimator struct {
	n        int
	schedI   []int // subframes in which client i was scheduled
	accessI  []int // ... and passed CCA
	schedIJ  [][]int
	accessIJ [][]int
}

// NewEstimator returns an empty estimator over n clients.
func NewEstimator(n int) *Estimator {
	e := &Estimator{
		n:        n,
		schedI:   make([]int, n),
		accessI:  make([]int, n),
		schedIJ:  make([][]int, n),
		accessIJ: make([][]int, n),
	}
	for i := range e.schedIJ {
		e.schedIJ[i] = make([]int, n)
		e.accessIJ[i] = make([]int, n)
	}
	return e
}

// Record adds one subframe's observation: scheduled lists the clients
// holding grants, accessed the subset of them that passed CCA (pilot
// received at the eNB — collision and fading outcomes still count as
// accessed, per the Section 3.3 loss classification).
//
// A subframe's grant list is a set: duplicate indices are folded to one
// occurrence (a client either held a grant in the subframe or it did
// not), and out-of-range indices are ignored. Without the dedup, a
// duplicated grant entry would weight that subframe's outcome twice in
// the marginal ratios — biasing p(i) toward whatever happened in
// malformed subframes — and write to the unused schedIJ diagonal. The
// grant list is caller-controlled input on the /v1/observe wire path,
// so hygiene lives here, not in the callers.
func (e *Estimator) Record(scheduled []int, accessed blueprint.ClientSet) {
	e.recordSet(scheduledSet(scheduled, e.n), accessed, 1)
}

// scheduledSet canonicalizes a grant list into a client set, dropping
// duplicates and out-of-range indices.
func scheduledSet(scheduled []int, n int) blueprint.ClientSet {
	var set blueprint.ClientSet
	for _, a := range scheduled {
		if a < 0 || a >= n || a >= blueprint.MaxClients {
			continue
		}
		set = set.Add(a)
	}
	return set
}

// recordSet folds one canonical observation into the counters with the
// given weight. delta is +1 for Record and negative when a Window
// retires an epoch; the bit loops guarantee i < j on every pair so the
// diagonal is never touched and each pair is counted exactly once.
func (e *Estimator) recordSet(set blueprint.ClientSet, accessed blueprint.ClientSet, delta int) {
	for v := uint64(set); v != 0; v &= v - 1 {
		a := bits.TrailingZeros64(v)
		e.schedI[a] += delta
		if accessed.Has(a) {
			e.accessI[a] += delta
		}
		for w := v & (v - 1); w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			e.schedIJ[a][b] += delta
			if accessed.Has(a) && accessed.Has(b) {
				e.accessIJ[a][b] += delta
			}
		}
	}
}

// Samples returns how many co-scheduled observations the pair (i, j)
// has.
func (e *Estimator) Samples(i, j int) int {
	if i == j {
		return e.schedI[i]
	}
	return e.schedIJ[min(i, j)][max(i, j)]
}

// Measurements produces the estimated access distributions, clamped
// into the consistent region. Pairs never observed together fall back
// to the independence assumption p(i,j) = p(i)·p(j); clients never
// scheduled fall back to p(i) = 1 (no evidence of interference).
func (e *Estimator) Measurements() *blueprint.Measurements {
	m := blueprint.NewMeasurements(e.n)
	for i := 0; i < e.n; i++ {
		if e.schedI[i] == 0 {
			m.P[i] = 1
			continue
		}
		m.P[i] = float64(e.accessI[i]) / float64(e.schedI[i])
	}
	for i := 0; i < e.n; i++ {
		for j := i + 1; j < e.n; j++ {
			if e.schedIJ[i][j] == 0 {
				m.SetPair(i, j, m.P[i]*m.P[j])
				continue
			}
			m.SetPair(i, j, float64(e.accessIJ[i][j])/float64(e.schedIJ[i][j]))
		}
	}
	m.Clamp(1e-4)
	return m
}

// Quarantine drops pair statistics that are inconsistent with their own
// marginals beyond what sampling noise explains: raw-count estimates
// must satisfy p(i)·p(j) ≤ p(i,j) ≤ min(p(i), p(j)) (shared hidden
// terminals only correlate accesses positively), and a pair outside
// that region by more than tol plus a 1.5/√n_ij noise allowance is
// poisoned — corrupted observations, or statistics straddling a
// topology change — and would warp the whole blueprint through the
// joint constraint system. Quarantined pairs have their pair counts
// zeroed, so Measurements falls back to the independence estimate and
// the pair drops below RefreshThreshold, forcing re-measurement.
// Marginal counts are kept: they are estimated from far more samples
// and are not implicated by a pair-level inconsistency. Returns the
// number of pairs quarantined. tol <= 0 selects 0.1.
//
// This is deliberately stricter than Measurements' Clamp: Clamp coerces
// small noise violations into the consistent region (hiding them from
// inference), while Quarantine treats large violations as evidence the
// samples themselves are wrong.
func (e *Estimator) Quarantine(tol float64) int {
	if tol <= 0 {
		tol = 0.1
	}
	dropped := 0
	for i := 0; i < e.n; i++ {
		if e.schedI[i] == 0 {
			continue
		}
		pi := float64(e.accessI[i]) / float64(e.schedI[i])
		for j := i + 1; j < e.n; j++ {
			nij := e.schedIJ[i][j]
			if nij == 0 || e.schedI[j] == 0 {
				continue
			}
			pj := float64(e.accessI[j]) / float64(e.schedI[j])
			pij := float64(e.accessIJ[i][j]) / float64(nij)
			allow := tol + 1.5/math.Sqrt(float64(nij))
			if pij > math.Min(pi, pj)+allow || pij < pi*pj-allow {
				e.schedIJ[i][j], e.accessIJ[i][j] = 0, 0
				dropped++
			}
		}
	}
	return dropped
}

// Reset clears all accumulated observations (used when topology
// dynamics invalidate the stationarity assumption, Section 3.5).
func (e *Estimator) Reset() {
	for i := 0; i < e.n; i++ {
		e.schedI[i], e.accessI[i] = 0, 0
		for j := 0; j < e.n; j++ {
			e.schedIJ[i][j], e.accessIJ[i][j] = 0, 0
		}
	}
}

package access

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"blu/internal/blueprint"
	"blu/internal/rng"
)

// minPairCount is the smallest co-scheduling count over all pairs.
func minPairCount(p *Plan) int {
	i, j := leastSampledPair(p.PairCounts)
	return p.PairCounts[i][j]
}

func TestFMin(t *testing.T) {
	// The paper's §3.3 example: N=20, K=8, T=T → C(20,2)/C(8,2)·T =
	// 190/28·T ≈ 6.8T ("only < 7T sub-frames").
	if got := FMin(20, 8, 1); got != 7 {
		t.Errorf("FMin(20,8,1) = %d, want 7", got)
	}
	if got := FMin(20, 8, 50); got != 340 { // ⌈190/28·50⌉ = ⌈339.3⌉
		t.Errorf("FMin(20,8,50) = %d, want 340 (the paper's t_max anchor)", got)
	}
	if FMin(1, 8, 50) != 0 || FMin(20, 1, 50) != 0 || FMin(20, 8, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestJointOverhead(t *testing.T) {
	// The paper's example: all 6-client joints for a 20-client cell
	// with K=8 need ≈1384·T subframes (C(20,6)/C(8,6) = 38760/28 =
	// 1384.28…, which ceils to 1385; the paper truncates).
	if got := JointOverhead(20, 8, 6, 1); got != 1385 {
		t.Errorf("JointOverhead(20,8,6,1) = %d, want 1385", got)
	}
	// Tuples larger than K are infeasible.
	if got := JointOverhead(20, 4, 5, 10); got != 0 {
		t.Errorf("infeasible tuple gave %d", got)
	}
	// Pair-wise cost matches FMin.
	if JointOverhead(20, 8, 2, 50) != FMin(20, 8, 50) {
		t.Error("k=2 joint overhead disagrees with FMin")
	}
	// Cost explodes with tuple size.
	if JointOverhead(20, 8, 6, 50) <= 100*FMin(20, 8, 50) {
		t.Error("6-tuple cost should dwarf the pair-wise cost")
	}
}

func TestBuildPlanCoversAllPairs(t *testing.T) {
	plan, err := BuildPlan(PlanOptions{N: 12, K: 5, T: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := minPairCount(plan); got < 10 {
		t.Errorf("min pair count = %d, want >= 10", got)
	}
	for _, sf := range plan.Subframes {
		if len(sf) > 5 {
			t.Fatalf("subframe schedules %d clients, K=5", len(sf))
		}
		seen := map[int]bool{}
		for _, c := range sf {
			if c < 0 || c >= 12 {
				t.Fatalf("client %d out of range", c)
			}
			if seen[c] {
				t.Fatalf("client %d scheduled twice in one subframe", c)
			}
			seen[c] = true
		}
	}
}

func TestBuildPlanNearLowerBound(t *testing.T) {
	cases := []struct{ n, k, tt int }{
		{8, 8, 10}, {12, 6, 20}, {20, 8, 50}, {16, 4, 10},
	}
	for _, c := range cases {
		plan, err := BuildPlan(PlanOptions{N: c.n, K: c.k, T: c.tt})
		if err != nil {
			t.Fatalf("N=%d: %v", c.n, err)
		}
		fmin := FMin(c.n, c.k, c.tt)
		if plan.TMax() < fmin {
			t.Errorf("N=%d: plan %d below the lower bound %d", c.n, plan.TMax(), fmin)
		}
		// Algorithm 1 should stay within ~2.5x of the bound (the paper's
		// §3.7 anchor: t_max ≈ 340 for a bound of 340).
		if float64(plan.TMax()) > 2.5*float64(fmin) {
			t.Errorf("N=%d K=%d T=%d: plan %d vs bound %d", c.n, c.k, c.tt, plan.TMax(), fmin)
		}
	}
}

func TestBuildPlanBalancedSampling(t *testing.T) {
	plan, err := BuildPlan(PlanOptions{N: 10, K: 4, T: 20})
	if err != nil {
		t.Fatal(err)
	}
	// The log potential keeps pair counts within a small band.
	minC, maxC := math.MaxInt, 0
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			c := plan.PairCounts[i][j]
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
	}
	if minC < 20 {
		t.Errorf("min pair count %d below T", minC)
	}
	if maxC > 3*minC {
		t.Errorf("unbalanced sampling: min %d, max %d", minC, maxC)
	}
}

func TestBuildPlanValidation(t *testing.T) {
	if _, err := BuildPlan(PlanOptions{N: 1, K: 4, T: 5}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := BuildPlan(PlanOptions{N: 5, K: 1, T: 5}); err == nil {
		t.Error("K=1 accepted")
	}
	if _, err := BuildPlan(PlanOptions{N: 5, K: 4, T: 0}); err == nil {
		t.Error("T=0 accepted")
	}
	// K > N clamps rather than failing.
	plan, err := BuildPlan(PlanOptions{N: 3, K: 10, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plan.TMax() != 2 {
		t.Errorf("clamped plan length %d, want 2 (all clients every subframe)", plan.TMax())
	}
}

func TestEstimatorBasic(t *testing.T) {
	e := NewEstimator(3)
	// Clients 0 and 1 each accessible in 2 of 4 co-scheduled subframes,
	// jointly accessible in 1 (= p(0)·p(1), so clamping cannot bind).
	e.Record([]int{0, 1}, blueprint.NewClientSet(0, 1))
	e.Record([]int{0, 1}, blueprint.NewClientSet(1))
	e.Record([]int{0, 1}, blueprint.NewClientSet(0))
	e.Record([]int{0, 1}, blueprint.NewClientSet())
	e.Record([]int{2}, blueprint.NewClientSet(2))
	m := e.Measurements()
	if math.Abs(m.P[0]-0.5) > 1e-12 || math.Abs(m.P[1]-0.5) > 1e-12 {
		t.Errorf("p(0)=%v p(1)=%v, want 0.5", m.P[0], m.P[1])
	}
	if got := m.Pair(0, 1); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("p(0,1) = %v, want 0.25", got)
	}
	if e.Samples(0, 1) != 4 || e.Samples(0, 2) != 0 || e.Samples(2, 2) != 1 {
		t.Error("sample counts wrong")
	}
	// Unobserved pair falls back to independence.
	if got := m.Pair(1, 2); math.Abs(got-m.P[1]*m.P[2]) > 1e-9 {
		t.Errorf("unobserved pair = %v, want independent product", got)
	}
}

func TestEstimatorClampsInconsistentPairs(t *testing.T) {
	e := NewEstimator(2)
	// Client 1 is always accessible, so p(0,1) must equal p(0) = 2/3;
	// the raw 1/2 joint estimate is sampling noise and gets repaired.
	e.Record([]int{0, 1}, blueprint.NewClientSet(0, 1))
	e.Record([]int{0, 1}, blueprint.NewClientSet(1))
	e.Record([]int{0, 1}, blueprint.NewClientSet(0, 1))
	e.Record([]int{0, 1}, blueprint.NewClientSet(0)) // noise: 1 blocked alone
	m := e.Measurements()
	if err := m.Validate(1e-9); err != nil {
		t.Fatalf("estimator output not consistent: %v", err)
	}
}

func TestEstimatorUnscheduledClientDefaults(t *testing.T) {
	e := NewEstimator(2)
	e.Record([]int{0}, blueprint.NewClientSet(0))
	m := e.Measurements()
	if m.P[1] != 1 {
		t.Errorf("never-scheduled client p = %v, want 1", m.P[1])
	}
}

func TestEstimatorReset(t *testing.T) {
	e := NewEstimator(2)
	e.Record([]int{0, 1}, blueprint.NewClientSet(0))
	e.Reset()
	if e.Samples(0, 1) != 0 || e.Samples(0, 0) != 0 {
		t.Error("reset incomplete")
	}
}

// TestEstimatorConvergesToTruth drives the estimator with synthetic
// access outcomes from a known topology scheduled by Algorithm 1 and
// checks the estimates converge to the analytic distributions.
func TestEstimatorConvergesToTruth(t *testing.T) {
	truth := &blueprint.Topology{N: 6, HTs: []blueprint.HiddenTerminal{
		{Q: 0.3, Clients: blueprint.NewClientSet(0, 1)},
		{Q: 0.4, Clients: blueprint.NewClientSet(2, 3, 4)},
	}}
	plan, err := BuildPlan(PlanOptions{N: 6, K: 4, T: 400})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(12)
	e := NewEstimator(6)
	for _, clients := range plan.Subframes {
		var blocked blueprint.ClientSet
		for _, ht := range truth.HTs {
			if r.Bool(ht.Q) {
				blocked = blocked.Union(ht.Clients)
			}
		}
		var accessed blueprint.ClientSet
		for _, c := range clients {
			if !blocked.Has(c) {
				accessed = accessed.Add(c)
			}
		}
		e.Record(clients, accessed)
	}
	m := e.Measurements()
	for i := 0; i < 6; i++ {
		if math.Abs(m.P[i]-truth.AccessProb(i)) > 0.06 {
			t.Errorf("p(%d) = %v, truth %v", i, m.P[i], truth.AccessProb(i))
		}
		for j := i + 1; j < 6; j++ {
			if math.Abs(m.Pair(i, j)-truth.PairProb(i, j)) > 0.08 {
				t.Errorf("p(%d,%d) = %v, truth %v", i, j, m.Pair(i, j), truth.PairProb(i, j))
			}
		}
	}
	// And inference over these estimates recovers the blueprint.
	inf, err := blueprint.Infer(m, blueprint.InferOptions{Seed: 2, Tolerance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if acc := blueprint.Accuracy(truth, inf.Topology); acc < 1 {
		t.Errorf("end-to-end accuracy = %v (inferred %v)", acc, inf.Topology)
	}
}

// TestPlanProperty fuzzes plan parameters: every plan must cover all
// pairs at least T times with at most K clients per subframe.
func TestPlanProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(10)
		k := 2 + r.Intn(6)
		tt := 1 + r.Intn(8)
		plan, err := BuildPlan(PlanOptions{N: n, K: k, T: tt})
		if err != nil {
			return false
		}
		if minPairCount(plan) < tt {
			return false
		}
		for _, sf := range plan.Subframes {
			if len(sf) > min(k, n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBuildPlanOverBudgetErrorMessage(t *testing.T) {
	// Regression: the over-budget error's format string says
	// (N=%d K=%d T=%d) but the arguments were passed as (n, t, k),
	// swapping K and T in the reported message.
	_, err := BuildPlan(PlanOptions{N: 9, K: 2, T: 7, MaxSubframes: 1})
	if err == nil {
		t.Fatal("plan within an impossible 1-subframe budget")
	}
	msg := err.Error()
	if !strings.Contains(msg, "N=9 K=2 T=7") {
		t.Errorf("over-budget error reports wrong parameters: %q", msg)
	}
}

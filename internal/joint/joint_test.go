package joint

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"blu/internal/blueprint"
	"blu/internal/rng"
)

// ProbInclusionExclusion computes P(U, V̄) by exact inclusion-exclusion
// over subsets of V:
//
//	P(U, V̄) = Σ_{S ⊆ V} (−1)^{|S|} · P(U ∪ S clear)
//
// It is exponential in |V| and exists as an independent cross-check for
// the recursive method (the two must agree — property-tested).
func ProbInclusionExclusion(topo *blueprint.Topology, clear, blocked blueprint.ClientSet) float64 {
	if !clear.Intersect(blocked).Empty() {
		return 0
	}
	members := blocked.Members()
	m := len(members)
	var p float64
	for mask := 0; mask < 1<<uint(m); mask++ {
		set := clear
		bits := 0
		for b := 0; b < m; b++ {
			if mask&(1<<uint(b)) != 0 {
				set = set.Add(members[b])
				bits++
			}
		}
		term := topo.ClearProb(set)
		if bits%2 == 1 {
			term = -term
		}
		p += term
	}
	if p < 0 {
		p = 0
	}
	return p
}

func testTopology() *blueprint.Topology {
	return &blueprint.Topology{
		N: 5,
		HTs: []blueprint.HiddenTerminal{
			{Q: 0.30, Clients: blueprint.NewClientSet(0, 1)},
			{Q: 0.20, Clients: blueprint.NewClientSet(1, 2, 3)},
			{Q: 0.15, Clients: blueprint.NewClientSet(3)},
			{Q: 0.40, Clients: blueprint.NewClientSet(0, 4)},
		},
	}
}

func TestCalculatorMatchesInclusionExclusion(t *testing.T) {
	topo := testTopology()
	calc := NewCalculator(topo)
	full := blueprint.NewClientSet(0, 1, 2, 3, 4)
	// Enumerate every disjoint (clear, blocked) partition of subsets.
	for clearMask := blueprint.ClientSet(0); clearMask <= full; clearMask++ {
		if !full.Contains(clearMask) {
			continue
		}
		rest := full.Minus(clearMask)
		for blockedMask := blueprint.ClientSet(0); blockedMask <= rest; blockedMask++ {
			if !rest.Contains(blockedMask) {
				continue
			}
			got := calc.Prob(clearMask, blockedMask)
			want := ProbInclusionExclusion(topo, clearMask, blockedMask)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("Prob(%v, %v) = %v, inclusion-exclusion %v",
					clearMask, blockedMask, got, want)
			}
		}
	}
}

func TestCalculatorMatchesMonteCarlo(t *testing.T) {
	topo := testTopology()
	calc := NewCalculator(topo)
	clear := blueprint.NewClientSet(2, 4)
	blocked := blueprint.NewClientSet(0, 3)
	want := calc.Prob(clear, blocked)

	r := rng.New(42)
	const trials = 300000
	hits := 0
	for n := 0; n < trials; n++ {
		var silenced blueprint.ClientSet
		for _, ht := range topo.HTs {
			if r.Bool(ht.Q) {
				silenced = silenced.Union(ht.Clients)
			}
		}
		if silenced.Intersect(clear).Empty() && silenced.Contains(blocked) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-want) > 0.005 {
		t.Errorf("Monte Carlo %v, calculator %v", got, want)
	}
}

func TestCalculatorPaperExample(t *testing.T) {
	// The paper's Section 3.6 example: P(1̄, 2̄, 3, 4) decomposed via
	// conditioning. Verify the decomposition identities hold on our
	// calculator for an arbitrary topology.
	topo := testTopology()
	calc := NewCalculator(topo)
	c34 := blueprint.NewClientSet(2, 3) // "clients 3, 4" (0-indexed: 2, 3)
	b12 := blueprint.NewClientSet(0, 1) // "clients 1, 2"
	joint := calc.Prob(c34, b12)
	p34 := calc.Prob(c34, 0)
	if p34 == 0 {
		t.Fatal("P(3,4) = 0")
	}
	condBlocked := joint / p34 // P((1̄,2̄)|(3,4))
	// Cross-check against inclusion-exclusion on the conditioned topology.
	cond := topo.Condition(c34)
	want := ProbInclusionExclusion(cond, 0, b12)
	if math.Abs(condBlocked-want) > 1e-9 {
		t.Errorf("P(blocked|clear) = %v, conditioned-topology value %v", condBlocked, want)
	}
}

func TestCalculatorDisjointSetsRequired(t *testing.T) {
	calc := NewCalculator(testTopology())
	overlap := blueprint.NewClientSet(1)
	if got := calc.Prob(overlap, overlap); got != 0 {
		t.Errorf("overlapping sets gave %v, want 0", got)
	}
}

func TestCalculatorTotalProbability(t *testing.T) {
	// Summing P(g, rest blocked) over all subsets g of a group must be 1.
	calc := NewCalculator(testTopology())
	group := blueprint.NewClientSet(0, 1, 3, 4)
	var sum float64
	members := group.Members()
	for mask := 0; mask < 1<<uint(len(members)); mask++ {
		var g blueprint.ClientSet
		for b, m := range members {
			if mask&(1<<uint(b)) != 0 {
				g = g.Add(m)
			}
		}
		sum += calc.Prob(g, group.Minus(g))
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("total probability = %v, want 1", sum)
	}
}

func TestIndependentDistribution(t *testing.T) {
	d := &Independent{P: []float64{0.5, 0.8}}
	got := d.Prob(blueprint.NewClientSet(0), blueprint.NewClientSet(1))
	if math.Abs(got-0.5*0.2) > 1e-12 {
		t.Errorf("Prob = %v, want 0.1", got)
	}
	if d.Marginal(1) != 0.8 {
		t.Errorf("Marginal = %v", d.Marginal(1))
	}
}

func TestEmpiricalDistribution(t *testing.T) {
	e := NewEmpirical(3)
	// Outcomes: {0,1} clear ×3, {0} clear ×1, {} ×1 (5 subframes).
	for i := 0; i < 3; i++ {
		e.Add(blueprint.NewClientSet(0, 1))
	}
	e.Add(blueprint.NewClientSet(0))
	e.Add(0)
	if got := e.Marginal(0); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Marginal(0) = %v, want 0.8", got)
	}
	got := e.Prob(blueprint.NewClientSet(0), blueprint.NewClientSet(1))
	if math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Prob(0 clear, 1 blocked) = %v, want 0.2", got)
	}
	if e.total != 5 {
		t.Errorf("total = %d", e.total)
	}
}

func TestEmpiricalConvergesToCalculator(t *testing.T) {
	topo := testTopology()
	calc := NewCalculator(topo)
	e := NewEmpirical(topo.N)
	r := rng.New(7)
	for n := 0; n < 200000; n++ {
		var silenced blueprint.ClientSet
		for _, ht := range topo.HTs {
			if r.Bool(ht.Q) {
				silenced = silenced.Union(ht.Clients)
			}
		}
		all := blueprint.NewClientSet(0, 1, 2, 3, 4)
		e.Add(all.Minus(silenced))
	}
	clear := blueprint.NewClientSet(1, 4)
	blocked := blueprint.NewClientSet(3)
	if diff := math.Abs(e.Prob(clear, blocked) - calc.Prob(clear, blocked)); diff > 0.01 {
		t.Errorf("empirical and analytic disagree by %v", diff)
	}
}

// TestEmpiricalMarginalMatchesScan asserts the O(1) per-client hit
// counters maintained by Add stay equivalent to the full scan over the
// outcome-count map they replaced (the scan made Marginal quadratic on
// the Fig 15 oracle path).
func TestEmpiricalMarginalMatchesScan(t *testing.T) {
	r := rng.New(23)
	const n = 9
	e := NewEmpirical(n)
	for s := 0; s < 5000; s++ {
		var acc blueprint.ClientSet
		for i := 0; i < n; i++ {
			if r.Bool(0.3 + 0.05*float64(i)) {
				acc = acc.Add(i)
			}
		}
		e.Add(acc)
	}
	for i := 0; i < n; i++ {
		hits := 0
		for mask, c := range e.counts {
			if mask.Has(i) {
				hits += c
			}
		}
		want := float64(hits) / float64(e.total)
		if got := e.Marginal(i); got != want {
			t.Errorf("Marginal(%d) = %v, scan over counts gives %v", i, got, want)
		}
	}
	// Out-of-range clients are simply never accessible.
	if e.Marginal(-1) != 0 || e.Marginal(blueprint.MaxClients) != 0 {
		t.Error("out-of-range Marginal not 0")
	}
}

// TestCalculatorMemoLimitInvariance pins the flat memo's reset-not-evict
// contract: a calculator whose memo holds 8 entries must return exactly
// the probabilities of an unbounded one (entries are pure functions of
// the topology), while actually resetting along the way.
func TestCalculatorMemoLimitInvariance(t *testing.T) {
	topo := testTopology()
	ref := NewCalculator(topo)
	tiny := NewCalculator(topo)
	tiny.SetMemoLimit(8)

	full := blueprint.NewClientSet(0, 1, 2, 3, 4)
	for clearMask := blueprint.ClientSet(0); clearMask <= full; clearMask++ {
		if !full.Contains(clearMask) {
			continue
		}
		rest := full.Minus(clearMask)
		for blockedMask := blueprint.ClientSet(0); blockedMask <= rest; blockedMask++ {
			if !rest.Contains(blockedMask) {
				continue
			}
			got, want := tiny.Prob(clearMask, blockedMask), ref.Prob(clearMask, blockedMask)
			if got != want {
				t.Fatalf("Prob(%v, %v) = %v with 8-entry memo, %v unbounded",
					clearMask, blockedMask, got, want)
			}
		}
	}
	if tiny.count > tiny.max {
		t.Errorf("memo holds %d entries, bound is %d", tiny.count, tiny.max)
	}
}

// TestDistributionAgreementProperty cross-checks all three independent
// ways of producing a joint access distribution over random topologies:
// the Section 3.6 recursion (Calculator), exact inclusion-exclusion,
// and Monte-Carlo counting fed into an Empirical oracle. The first two
// must agree to float precision, the empirical estimate to sampling
// tolerance.
func TestDistributionAgreementProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo sampling per seed")
	}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(4)
		topo := &blueprint.Topology{N: n}
		for k, h := 0, 1+r.Intn(4); k < h; k++ {
			var set blueprint.ClientSet
			for i := 0; i < n; i++ {
				if r.Bool(0.4) {
					set = set.Add(i)
				}
			}
			if set.Empty() {
				set = set.Add(r.Intn(n))
			}
			topo.HTs = append(topo.HTs, blueprint.HiddenTerminal{
				Q: r.Float64() * 0.8, Clients: set,
			})
		}
		var all, clear, blocked blueprint.ClientSet
		for i := 0; i < n; i++ {
			all = all.Add(i)
			switch r.Intn(3) {
			case 0:
				clear = clear.Add(i)
			case 1:
				blocked = blocked.Add(i)
			}
		}

		calc := NewCalculator(topo)
		emp := NewEmpirical(n)
		const trials = 30000
		for s := 0; s < trials; s++ {
			var silenced blueprint.ClientSet
			for _, ht := range topo.HTs {
				if r.Bool(ht.Q) {
					silenced = silenced.Union(ht.Clients)
				}
			}
			emp.Add(all.Minus(silenced))
		}

		pCalc := calc.Prob(clear, blocked)
		pIE := ProbInclusionExclusion(topo, clear, blocked)
		pEmp := emp.Prob(clear, blocked)
		if math.Abs(pCalc-pIE) > 1e-9 {
			t.Logf("seed %d: calc %v vs inclusion-exclusion %v", seed, pCalc, pIE)
			return false
		}
		if math.Abs(pCalc-pEmp) > 0.02 {
			t.Logf("seed %d: calc %v vs empirical %v", seed, pCalc, pEmp)
			return false
		}
		// Marginals must agree the same way.
		for i := 0; i < n; i++ {
			if math.Abs(calc.Marginal(i)-emp.Marginal(i)) > 0.02 {
				t.Logf("seed %d: marginal(%d) calc %v vs empirical %v",
					seed, i, calc.Marginal(i), emp.Marginal(i))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestRecursionEqualsInclusionExclusionProperty fuzzes random topologies
// and random disjoint set pairs: the Section 3.6 recursion and exact
// inclusion-exclusion must always agree.
func TestRecursionEqualsInclusionExclusionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(6)
		topo := &blueprint.Topology{N: n}
		for k, h := 0, 1+r.Intn(5); k < h; k++ {
			var set blueprint.ClientSet
			for i := 0; i < n; i++ {
				if r.Bool(0.4) {
					set = set.Add(i)
				}
			}
			if set.Empty() {
				set = set.Add(r.Intn(n))
			}
			topo.HTs = append(topo.HTs, blueprint.HiddenTerminal{
				Q: r.Float64() * 0.9, Clients: set,
			})
		}
		var clear, blocked blueprint.ClientSet
		for i := 0; i < n; i++ {
			switch r.Intn(3) {
			case 0:
				clear = clear.Add(i)
			case 1:
				blocked = blocked.Add(i)
			}
		}
		calc := NewCalculator(topo)
		got := calc.Prob(clear, blocked)
		want := ProbInclusionExclusion(topo, clear, blocked)
		return math.Abs(got-want) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// growthTopology is dense enough (12 clients, 8 overlapping terminals)
// that enumerating its joint probabilities fills thousands of memo
// entries.
func growthTopology() *blueprint.Topology {
	r := rng.New(23)
	topo := &blueprint.Topology{N: 12}
	for k := 0; k < 8; k++ {
		var set blueprint.ClientSet
		for i := 0; i < topo.N; i++ {
			if r.Bool(0.3) {
				set = set.Add(i)
			}
		}
		topo.HTs = append(topo.HTs, blueprint.HiddenTerminal{
			Q: 0.1 + 0.5*r.Float64(), Clients: set.Add(k),
		})
	}
	return topo
}

// TestCalculatorGrowthInvariance pins the sized-by-use contract: a memo
// that starts at minMemoSlots and grows on demand returns bit-identical
// probabilities to one whose slot array is preallocated at its bound —
// through several growth steps and across whole-table resets — and the
// two see the same resets, because the reset rule counts entries, not
// slots.
func TestCalculatorGrowthInvariance(t *testing.T) {
	const limit = 1 << 10
	topo := growthTopology()
	grown := NewCalculator(topo)
	grown.SetMemoLimit(limit)
	fixed := NewCalculator(topo)
	fixed.SetMemoLimit(limit)
	fixed.slots = make([]calcSlot, 2*limit)
	fixed.mask = 2*limit - 1
	if len(grown.slots) != minMemoSlots {
		t.Fatalf("fresh memo has %d slots, want %d", len(grown.slots), minMemoSlots)
	}

	resets, sizes := 0, map[int]bool{}
	r := rng.New(5)
	for q := 0; q < 4000; q++ {
		var clear, blocked blueprint.ClientSet
		for i := 0; i < topo.N; i++ {
			switch r.Intn(3) {
			case 0:
				clear = clear.Add(i)
			case 1:
				blocked = blocked.Add(i)
			}
		}
		before := grown.count
		got, want := grown.Prob(clear, blocked), fixed.Prob(clear, blocked)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("query %d: Prob(%v, %v) = %v grown, %v preallocated", q, clear, blocked, got, want)
		}
		if grown.count != fixed.count {
			t.Fatalf("query %d: grown memo holds %d entries, preallocated %d", q, grown.count, fixed.count)
		}
		if grown.count < before {
			resets++
		}
		sizes[len(grown.slots)] = true
		if 2*grown.count > len(grown.slots) {
			t.Fatalf("query %d: load %d/%d above 0.5", q, grown.count, len(grown.slots))
		}
	}
	if len(sizes) < 3 || len(grown.slots) != 2*limit {
		t.Errorf("memo went through sizes %v, want several steps ending at %d", sizes, 2*limit)
	}
	if resets == 0 {
		t.Error("memo never reset: the run does not cross the bound")
	}
}

// TestNewCalculatorSmall holds the miss path's price: a calculator that
// answers one query on a small topology allocates a few KB, not the
// 1.5 MB table its entry bound would allow.
func TestNewCalculatorSmall(t *testing.T) {
	topo := testTopology()
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		calc := NewCalculator(topo)
		calc.Prob(blueprint.NewClientSet(0), blueprint.NewClientSet(1, 2))
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= 8<<10 {
		t.Errorf("NewCalculator + one Prob allocates %d bytes, want < 8 KB", got)
	}
}

// Package joint computes higher-order joint client access distributions
// P(U, V̄) — the probability that every client in U utilizes its grant
// while every client in V is blocked — which BLU's speculative scheduler
// consumes (Eqn 4).
//
// The package provides three sources for these distributions:
//
//   - Calculator derives them from an inferred interference blueprint by
//     recursive topology conditioning, the paper's Section 3.6 method
//     (Eqns 7–9). This is BLU's production path: it needs only the
//     blueprint, which in turn needed only pair-wise measurements.
//   - Empirical estimates them by counting joint access outcomes in
//     recorded subframe traces. The paper uses this only to isolate
//     scheduler performance with perfect knowledge (Fig 15) because its
//     measurement cost scales exponentially with the group size.
//   - Independent multiplies marginal access probabilities, the
//     (incorrect under shared interferers) assumption the access-aware
//     baseline scheduler effectively makes.
package joint

import (
	mathbits "math/bits"
	"unsafe"

	"blu/internal/blueprint"
	"blu/internal/obs"
)

// Distribution yields joint access probabilities for client groups.
type Distribution interface {
	// Prob returns P(clear, blocked): the probability that every client
	// in clear passes CCA while every client in blocked does not, in
	// the same subframe. The sets must be disjoint.
	Prob(clear, blocked blueprint.ClientSet) float64
	// Marginal returns p(i) for a single client.
	Marginal(i int) float64
}

// defaultMemoEntries bounds the Calculator memo unless SetMemoLimit
// overrides it.
const defaultMemoEntries = 1 << 15

// minMemoSlots is the slot count a Calculator starts with (1.5 KB). The
// table grows fourfold on demand up to twice the entry bound: five steps
// to the default bound, so the entries rehashed along the way sum to a
// third of the final count. Doubling fits memory a little tighter but
// rehashes three times as much, and a blueprint's first subframe often
// fills the memo to its bound (DESIGN.md §11 has the measurement).
const minMemoSlots = 64

// Calculator computes joint access distributions from a blueprint
// topology by recursive conditioning (Section 3.6): conditioning on a
// client having transmitted removes every hidden terminal adjacent to
// it (they must have been silent), and the recursion bottoms out at
// individual access probabilities on conditioned topologies.
//
// The Eqn-9 recursion is memoized in a flat open-addressed table keyed
// by the (cond, blocked) set pair (power-of-two capacity, linear
// probing) with a hard entry bound; hitting the bound resets the whole
// table. The slot array starts at minMemoSlots and grows as entries
// arrive, so a Calculator costs what it holds, not what it may hold.
// Entries are pure functions of the fixed topology, so a reset or a
// rehash only costs recomputation — results are bit-identical at any
// bound and any table size.
//
// A Calculator is not safe for concurrent use: Prob writes the memo.
type Calculator struct {
	topo  *blueprint.Topology
	max   int // entry bound; the slot count never exceeds the power of two >= 2*max
	mask  uint64
	slots []calcSlot
	count int

	// Local tallies flushed to the obs counters per Prob call.
	hits, misses, resets int64
}

// calcSlot is one memo entry of P(blocked̄ | cond). blocked is never
// empty for a memoized entry (the recursion returns 1 before memoizing),
// so blocked == 0 marks an empty slot.
type calcSlot struct {
	cond, blocked blueprint.ClientSet
	val           float64
}

var (
	calcCacheHits   = obs.GetCounter("sched_joint_cache_hit_total")
	calcCacheMisses = obs.GetCounter("sched_joint_cache_miss_total")
	calcCacheResets = obs.GetCounter("sched_joint_cache_reset_total")
)

// NewCalculator returns a Calculator over the given topology. The
// topology is not copied; callers must not mutate it while in use.
func NewCalculator(topo *blueprint.Topology) *Calculator {
	c := &Calculator{topo: topo}
	c.SetMemoLimit(0)
	return c
}

// SetMemoLimit bounds the memo table to max entries (<= 0 selects the
// default, 32768) and clears it. Because the table resets wholesale
// instead of evicting, every bound returns identical probabilities —
// only the recomputation rate differs.
func (c *Calculator) SetMemoLimit(max int) {
	if max <= 0 {
		max = defaultMemoEntries
	}
	n := 1
	for n < 2*max && n < minMemoSlots {
		n <<= 1
	}
	c.max = max
	c.mask = uint64(n - 1)
	c.slots = make([]calcSlot, n)
	c.count = 0
}

// MemoBytes returns the memory the memo table currently occupies.
func (c *Calculator) MemoBytes() int {
	return len(c.slots) * int(unsafe.Sizeof(calcSlot{}))
}

// probe returns the slot index where key (cond, blocked) lives or would
// be inserted. The two sets are folded into one word before the
// finalizer: one mix64 per probe instead of two.
func (c *Calculator) probe(cond, blocked blueprint.ClientSet) uint64 {
	i := mix64(uint64(cond)*0x9e3779b97f4a7c15^uint64(blocked)) & c.mask
	for c.slots[i].blocked != 0 && (c.slots[i].cond != cond || c.slots[i].blocked != blocked) {
		i = (i + 1) & c.mask
	}
	return i
}

// grow quadruples the slot array (stopping at the power of two >= 2*max)
// and rehashes every entry into it.
func (c *Calculator) grow() {
	old := c.slots
	n := 2 * len(old)
	if n < 2*c.max {
		n *= 2
	}
	c.slots = make([]calcSlot, n)
	c.mask = uint64(len(c.slots) - 1)
	for _, s := range old {
		if s.blocked != 0 {
			c.slots[c.probe(s.cond, s.blocked)] = s
		}
	}
}

// memoReset clears every slot; deterministic by construction (no
// eviction order to depend on). It only runs with the table at its
// full size, which it keeps.
func (c *Calculator) memoReset() {
	for i := range c.slots {
		c.slots[i] = calcSlot{}
	}
	c.count = 0
	c.resets++
}

// flushMetrics moves the local probe tallies into the obs counters.
func (c *Calculator) flushMetrics() {
	if c.hits != 0 {
		calcCacheHits.Add(c.hits)
	}
	if c.misses != 0 {
		calcCacheMisses.Add(c.misses)
	}
	if c.resets != 0 {
		calcCacheResets.Add(c.resets)
	}
	c.hits, c.misses, c.resets = 0, 0, 0
}

// mix64 is the SplitMix64 finalizer, scrambling ClientSet bit patterns
// (which cluster in the low bits) into uniform table indices.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Marginal implements Distribution.
func (c *Calculator) Marginal(i int) float64 { return c.topo.AccessProb(i) }

// Prob implements Distribution: P(U, V̄) = P(V̄ | U) · P(U) (Eqn 7),
// with P(U) by recursive conditioning (Eqn 8) — whose closed form on an
// independent-terminal blueprint is the clear-product — and P(V̄ | U)
// by the Eqn 9 recursion.
func (c *Calculator) Prob(clear, blocked blueprint.ClientSet) float64 {
	if !clear.Intersect(blocked).Empty() {
		return 0
	}
	pu := c.topo.ClearProb(clear) // P(U_n), Eqn 8
	if pu == 0 {
		return 0
	}
	p := pu * c.blockedGiven(clear, blocked)
	c.flushMetrics()
	return p
}

// blockedGiven returns P(V̄ | cond clear) via the Eqn 9 recursion:
//
//	P(V̄_m | cond) = P(V̄_{m−1} | cond) − P(v_m | cond) · P(V̄_{m−1} | cond ∪ v_m)
//
// i.e. "all of V blocked" equals "all but v_m blocked" minus the cases
// where v_m was additionally clear.
func (c *Calculator) blockedGiven(cond, blocked blueprint.ClientSet) float64 {
	if blocked.Empty() {
		return 1
	}
	i := c.probe(cond, blocked)
	if s := &c.slots[i]; s.blocked != 0 {
		c.hits++
		return s.val
	}
	c.misses++
	// vm is the highest-indexed member of blocked, matching the old
	// Members()[len-1] recursion order without materializing the slice.
	vm := 63 - mathbits.LeadingZeros64(uint64(blocked))
	rest := blocked.Remove(vm)
	pRest := c.blockedGiven(cond, rest)
	var p float64
	if pRest > 0 {
		pVm := c.marginalGiven(vm, cond)
		p = pRest - pVm*c.blockedGiven(cond.Add(vm), rest)
		if p < 0 {
			p = 0 // guard tiny negative float residue
		}
	}
	if c.count >= c.max {
		c.memoReset()
	} else if 2*(c.count+1) > len(c.slots) {
		c.grow() // load factor stays <= 0.5; count < max caps the growth
	}
	// Re-probe: the recursion above (or a reset or rehash) may have
	// moved the insertion slot since the miss.
	i = c.probe(cond, blocked)
	if c.slots[i].blocked == 0 {
		c.slots[i] = calcSlot{cond: cond, blocked: blocked, val: p}
		c.count++
	}
	return p
}

// marginalGiven returns P(v clear | cond clear): the product of idle
// probabilities of hidden terminals adjacent to v but not already
// silenced by the conditioning set (Fig 8's conditioned topology).
func (c *Calculator) marginalGiven(v int, cond blueprint.ClientSet) float64 {
	p := 1.0
	for _, ht := range c.topo.HTs {
		if ht.Clients.Has(v) && ht.Clients.Intersect(cond).Empty() {
			p *= 1 - ht.Q
		}
	}
	return p
}

// Independent is the naive distribution that treats client accesses as
// independent — correct only when no two clients share a hidden
// terminal. It is what a scheduler knowing only marginals can assume.
type Independent struct {
	// P[i] is client i's marginal access probability.
	P []float64
}

// Marginal implements Distribution.
func (d *Independent) Marginal(i int) float64 { return d.P[i] }

// Prob implements Distribution as a product of marginals.
func (d *Independent) Prob(clear, blocked blueprint.ClientSet) float64 {
	if !clear.Intersect(blocked).Empty() {
		return 0
	}
	p := 1.0
	clear.ForEach(func(i int) { p *= d.P[i] })
	blocked.ForEach(func(i int) { p *= 1 - d.P[i] })
	return p
}

// Empirical estimates joint distributions by counting observed
// per-subframe access outcomes. Add one outcome bitmask per subframe
// (bit i set ⇔ client i passed CCA); Prob divides matching outcomes by
// the total. This is the "perfect knowledge" oracle of Fig 15 when fed
// the ground-truth access trace.
type Empirical struct {
	counts map[blueprint.ClientSet]int
	total  int
	n      int
	// hits[i] counts outcomes in which client i passed CCA, maintained
	// by Add so Marginal is O(1) instead of a scan over every distinct
	// outcome (the scan made Marginal quadratic when an Empirical oracle
	// backs the speculative scheduler's candidate ranking, Fig 15).
	hits [blueprint.MaxClients]int
}

// NewEmpirical returns an empty empirical distribution over n clients.
func NewEmpirical(n int) *Empirical {
	return &Empirical{counts: make(map[blueprint.ClientSet]int), n: n}
}

// Add records one subframe's access outcome.
func (e *Empirical) Add(accessible blueprint.ClientSet) {
	e.counts[accessible]++
	e.total++
	accessible.ForEach(func(i int) { e.hits[i]++ })
}

// Marginal implements Distribution.
func (e *Empirical) Marginal(i int) float64 {
	if e.total == 0 || i < 0 || i >= blueprint.MaxClients {
		return 0
	}
	return float64(e.hits[i]) / float64(e.total)
}

// Prob implements Distribution.
func (e *Empirical) Prob(clear, blocked blueprint.ClientSet) float64 {
	if e.total == 0 || !clear.Intersect(blocked).Empty() {
		return 0
	}
	hits := 0
	for mask, c := range e.counts {
		if mask.Contains(clear) && mask.Intersect(blocked).Empty() {
			hits += c
		}
	}
	return float64(hits) / float64(e.total)
}

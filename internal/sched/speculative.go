package sched

import (
	"math"
	"math/bits"
	"unsafe"

	"blu/internal/blueprint"
	"blu/internal/joint"
	"blu/internal/lte"
	"blu/internal/obs"
)

// Speculative is BLU's scheduler (Section 3.2.2): it over-schedules up
// to OverFactor·M clients per RB, growing each RB's group greedily by
// the client that maximizes the *expected* utility increment under the
// joint access distribution of the group (Eqns 3–4):
//
//	E(G) = Σ_{g ⊆ G, |g| ≤ M} P(g, G\g blocked) · Σ_{i∈g} r_{i,b,|g|}/R_i
//
// Outcomes where more than M scheduled clients transmit are collisions
// and contribute nothing, which is what disciplines the over-scheduling.
type Speculative struct {
	st   *pfState
	dist joint.Distribution

	// OverFactor is f in the paper's [M, f·M] over-scheduling range
	// (default 2).
	OverFactor float64
	// CandidateLimit caps how many clients are exactly evaluated per
	// greedy step, pre-ranked by the access-weighted PF heuristic
	// (default 12; <= 0 evaluates every client).
	CandidateLimit int
	// CacheEntries bounds the group-distribution cache. When the bound
	// is reached the whole table resets deterministically (no eviction
	// order to depend on), so schedules are byte-identical at any bound;
	// <= 0 selects the default (8192 entries).
	CacheEntries int

	groups *groupDistCache

	// Scratch reused across Schedule calls (allocation-free in steady
	// state): candidate ranking and the Eqn-4 subset-sum buffers, the
	// latter sized lazily up to the 2^maxSpeculativeGroup cap.
	scored    []scoredCand
	cands     []int
	w         []float64
	subsetSum []float64
}

type scoredCand struct {
	ue    int
	score float64
}

// NewSpeculative returns BLU's speculative scheduler drawing joint
// access distributions from dist (typically a joint.Calculator over the
// inferred blueprint).
func NewSpeculative(env Env, dist joint.Distribution) (*Speculative, error) {
	return newSpeculative(env, dist, newGroupDistCache(dist, 0))
}

func newSpeculative(env Env, dist joint.Distribution, groups *groupDistCache) (*Speculative, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	return &Speculative{
		st:             newPFState(env, metricsBLU),
		dist:           dist,
		OverFactor:     2,
		CandidateLimit: 12,
		groups:         groups,
		w:              make([]float64, maxSpeculativeGroup),
	}, nil
}

// JointTables is everything on the speculative scheduler's
// joint-distribution path that is a pure function of one blueprint: the
// recursive-conditioning calculator and the group-distribution cache
// filled from it. A holder that schedules many subframes against the
// same blueprint through short-lived schedulers (internal/serve: one
// scheduler per request) keeps a JointTables and binds each scheduler to
// it with Speculative, so only the first subframe pays for the
// distributions.
//
// The tables are written on every use. They must never be used by two
// goroutines at once — that includes every scheduler bound to them and
// Calculator().Prob — and never for another topology (DESIGN.md §11).
type JointTables struct {
	calc   *joint.Calculator
	groups *groupDistCache
}

// NewJointTables returns empty tables over calc's topology.
func NewJointTables(calc *joint.Calculator) *JointTables {
	return &JointTables{calc: calc, groups: newGroupDistCache(calc, 0)}
}

// Calculator returns the tables' calculator, for callers that need
// joint probabilities or marginals without a speculative scheduler.
func (t *JointTables) Calculator() *joint.Calculator { return t.calc }

// Bytes returns the memory the tables currently occupy: both slot
// arrays plus the cached per-group outcome distributions.
func (t *JointTables) Bytes() int { return t.calc.MemoBytes() + t.groups.bytes() }

// Speculative returns a speculative scheduler with fresh PF state for
// env that borrows t's calculator and group-distribution cache. The
// schedules are byte-identical to NewSpeculative over a new calculator
// at any fill state of the tables, because every cached value is a pure
// function of the topology.
func (t *JointTables) Speculative(env Env) (*Speculative, error) {
	return newSpeculative(env, t.calc, t.groups)
}

// Name implements Scheduler.
func (s *Speculative) Name() string { return "BLU" }

// AvgThroughput implements Scheduler.
func (s *Speculative) AvgThroughput(i int) float64 { return s.st.r[i] }

// Observe implements Scheduler.
func (s *Speculative) Observe(_ int, results []lte.RBResult) { s.st.observe(results) }

// SetDistribution swaps the joint-distribution source, e.g. after
// re-blueprinting at the start of a new speculative phase. The group
// distribution cache is invalidated.
func (s *Speculative) SetDistribution(dist joint.Distribution) {
	s.dist = dist
	s.groups = newGroupDistCache(dist, s.CacheEntries)
}

// WarmStart seeds R_i from another scheduler's averages (avg[i] from
// AvgThroughput(i)); non-positive entries are ignored. Used when the
// degradation ladder switches schedulers mid-run.
func (s *Speculative) WarmStart(avg []float64) { s.st.warmStart(avg) }

// maxGroup returns the over-scheduling cap f·M (at least M).
func (s *Speculative) maxGroup() int {
	f := s.OverFactor
	if f < 1 {
		f = 1
	}
	g := int(math.Round(f * float64(s.st.env.M)))
	if g < s.st.env.M {
		g = s.st.env.M
	}
	if g > maxSpeculativeGroup {
		g = maxSpeculativeGroup // expected-utility enumeration is 2^|G|
	}
	return g
}

// Schedule implements Scheduler.
func (s *Speculative) Schedule(_ int) *lte.Schedule {
	env := s.st.env
	s.st.beginSubframe()
	s.groups.setLimit(s.CacheEntries)
	sch := lte.NewSchedule(env.NumRB)
	arena := make([]int, 0, env.NumRB*s.maxGroup())
	for b := 0; b < env.NumRB; b++ {
		group := s.speculativeGroup(b)
		if len(group) == 0 {
			continue
		}
		// Provisional PF load is the expected service of the granted
		// group: marginal access times rate, derated for the group size
		// exactly as PF and AccessAware derate theirs.
		scale := env.groupScale(len(group))
		for _, ue := range group {
			s.st.budgetNote(ue)
			s.st.noteGrant(ue, s.dist.Marginal(ue)*env.Rate(ue, b)*scale)
		}
		arena, sch.RB[b] = commitGroup(arena, group)
	}
	s.groups.flushMetrics()
	return sch
}

// speculativeGroup grows one RB's group per Eqn 3: repeatedly add the
// client ℓ* maximizing E(G ∪ ℓ) − E(G); stop when no client improves
// the expected utility or the f·M cap is reached. The returned slice is
// scheduler scratch, valid until the next greedy call.
func (s *Speculative) speculativeGroup(b int) []int {
	var set blueprint.ClientSet
	group := s.st.group[:0]
	current := 0.0
	limit := s.maxGroup()
	for len(group) < limit {
		cands := s.rankCandidates(set, b)
		bestUE, bestUtil := -1, current
		for _, ue := range cands {
			util := s.expectedUtility(set.Add(ue), b)
			if util > bestUtil+1e-15 {
				bestUE, bestUtil = ue, util
			}
		}
		if bestUE < 0 {
			break
		}
		group = append(group, bestUE)
		set = set.Add(bestUE)
		current = bestUtil
	}
	s.st.group = group
	return group
}

// rankCandidates orders the eligible clients by the access-weighted PF
// heuristic p(i)·r_{i,b}/R_i and returns the top CandidateLimit of them
// for exact expected-utility evaluation. The returned slice is
// scheduler scratch, valid until the next call.
func (s *Speculative) rankCandidates(set blueprint.ClientSet, b int) []int {
	env := s.st.env
	cands := s.scored[:0]
	for ue := 0; ue < env.NumUE; ue++ {
		if set.Has(ue) || !s.st.budgetAllows(ue) || !env.hasBacklog(ue, s.st.served[ue]) {
			continue
		}
		cands = append(cands, scoredCand{
			ue:    ue,
			score: s.dist.Marginal(ue) * env.Rate(ue, b) / s.st.metricDenom(ue),
		})
	}
	s.scored = cands
	// Partial selection sort for the top-L scores: L is small.
	limit := s.CandidateLimit
	if limit <= 0 || limit > len(cands) {
		limit = len(cands)
	}
	for i := 0; i < limit; i++ {
		maxJ := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].score > cands[maxJ].score {
				maxJ = j
			}
		}
		cands[i], cands[maxJ] = cands[maxJ], cands[i]
	}
	out := s.cands[:0]
	for _, c := range cands[:limit] {
		out = append(out, c.ue)
	}
	s.cands = out
	return out
}

// expectedUtility evaluates Eqn 4 for the group on RB b.
func (s *Speculative) expectedUtility(group blueprint.ClientSet, b int) float64 {
	env := s.st.env
	members, exact := s.groups.get(group)
	m := len(members)
	// w[j] = r_{member_j, b}/R_{member_j}; the |g|-dependent MU-MIMO
	// scale factors out of the inner sum.
	if len(s.w) < m {
		s.w = make([]float64, maxSpeculativeGroup)
	}
	w := s.w
	for j, ue := range members {
		w[j] = env.Rate(ue, b) / s.st.metricDenom(ue)
	}
	// subsetSum[mask] = Σ_{j ∈ mask} w[j], built incrementally in the
	// lazily grown scratch (≤ 2^maxSpeculativeGroup entries).
	if len(s.subsetSum) < 1<<uint(m) {
		s.subsetSum = make([]float64, 1<<uint(m))
	}
	subsetSum := s.subsetSum
	subsetSum[0] = 0
	total := 0.0
	for mask := 1; mask < 1<<uint(m); mask++ {
		low := mask & -mask
		subsetSum[mask] = subsetSum[mask&(mask-1)] + w[bits.TrailingZeros32(uint32(low))]
		n := bits.OnesCount32(uint32(mask))
		if n > env.M {
			continue // collision outcome: zero utility
		}
		if p := exact[mask]; p > 0 {
			total += p * subsetSum[mask] * env.groupScale(n)
		}
	}
	return total
}

// defaultGroupCacheEntries bounds the group-distribution cache unless
// Speculative.CacheEntries overrides it.
const defaultGroupCacheEntries = 8192

// minGroupCacheSlots is the slot count a group-distribution cache starts
// with (under 1 KB); the table grows fourfold on demand up to twice the
// entry bound, like the joint.Calculator memo it sits on.
const minGroupCacheSlots = 16

// groupDistCache memoizes, per client group, the exact probability of
// every "which subset transmitted" outcome. The distribution depends
// only on the (fixed) blueprint, so entries are reused across all RBs
// and subframes of a speculative phase. Storage is a flat
// open-addressed table (power-of-two capacity, linear probing) with a
// hard entry bound: hitting the bound resets the whole table — the
// deterministic alternative to eviction, since recomputed entries are
// bit-identical (DESIGN.md §11). The slot array starts at
// minGroupCacheSlots and grows as groups arrive.
type groupDistCache struct {
	dist  joint.Distribution
	max   int // entry bound; the slot count never exceeds the power of two >= 2*max
	mask  uint64
	slots []groupSlot
	count int
	// heldBytes is the size of the members and exact arrays the slots
	// point to.
	heldBytes int

	// Local tallies flushed to the obs counters once per subframe.
	hits, misses, resets int64
}

type groupSlot struct {
	key     blueprint.ClientSet
	members []int
	// exact[mask] = P(exactly the clients of mask transmit, rest of the
	// group blocked), indexed by bitmask over members. nil marks an
	// empty slot.
	exact []float64
}

var (
	groupCacheHits   = obs.GetCounter("sched_blu_cache_hit_total")
	groupCacheMisses = obs.GetCounter("sched_blu_cache_miss_total")
	groupCacheResets = obs.GetCounter("sched_blu_cache_reset_total")
)

func newGroupDistCache(dist joint.Distribution, max int) *groupDistCache {
	if max <= 0 {
		max = defaultGroupCacheEntries
	}
	n := 1
	for n < 2*max && n < minGroupCacheSlots {
		n <<= 1
	}
	return &groupDistCache{
		dist:  dist,
		max:   max,
		mask:  uint64(n - 1),
		slots: make([]groupSlot, n),
	}
}

// setLimit applies a changed entry bound, rebuilding (and thereby
// resetting) the table. A no-op when the bound is unchanged.
func (c *groupDistCache) setLimit(max int) {
	if max <= 0 {
		max = defaultGroupCacheEntries
	}
	if max == c.max {
		return
	}
	*c = *newGroupDistCache(c.dist, max)
}

// probe returns the slot index where group lives or would be inserted.
func (c *groupDistCache) probe(group blueprint.ClientSet) uint64 {
	i := mix64(uint64(group)) & c.mask
	for c.slots[i].exact != nil && c.slots[i].key != group {
		i = (i + 1) & c.mask
	}
	return i
}

func (c *groupDistCache) get(group blueprint.ClientSet) ([]int, []float64) {
	i := c.probe(group)
	if e := &c.slots[i]; e.exact != nil {
		c.hits++
		return e.members, e.exact
	}
	c.misses++
	members := group.Members()
	m := len(members)
	exact := make([]float64, 1<<uint(m))
	for mask := 0; mask < 1<<uint(m); mask++ {
		var clear blueprint.ClientSet
		for j := 0; j < m; j++ {
			if mask&(1<<uint(j)) != 0 {
				clear = clear.Add(members[j])
			}
		}
		exact[mask] = c.dist.Prob(clear, group.Minus(clear))
	}
	if c.count >= c.max {
		c.reset()
	} else if 2*(c.count+1) > len(c.slots) {
		c.grow() // load factor stays <= 0.5; count < max caps the growth
	}
	c.slots[c.probe(group)] = groupSlot{key: group, members: members, exact: exact}
	c.count++
	c.heldBytes += 8 * (len(members) + len(exact))
	return members, exact
}

// grow quadruples the slot array (stopping at the power of two >= 2*max)
// and rehashes every entry into it.
func (c *groupDistCache) grow() {
	old := c.slots
	n := 2 * len(old)
	if n < 2*c.max {
		n *= 2
	}
	c.slots = make([]groupSlot, n)
	c.mask = uint64(len(c.slots) - 1)
	for _, s := range old {
		if s.exact != nil {
			c.slots[c.probe(s.key)] = s
		}
	}
}

// bytes returns the memory the cache currently occupies.
func (c *groupDistCache) bytes() int {
	return len(c.slots)*int(unsafe.Sizeof(groupSlot{})) + c.heldBytes
}

// reset clears every slot. Dropping the whole table (rather than
// evicting) keeps cached state independent of lookup order, so a bound
// change can never change a schedule. It only runs with the table at
// its full size, which it keeps.
func (c *groupDistCache) reset() {
	for i := range c.slots {
		c.slots[i] = groupSlot{}
	}
	c.count = 0
	c.heldBytes = 0
	c.resets++
}

// flushMetrics moves the local tallies into the obs counters (one
// atomic add per counter per subframe, nothing per probe).
func (c *groupDistCache) flushMetrics() {
	if c.hits != 0 {
		groupCacheHits.Add(c.hits)
	}
	if c.misses != 0 {
		groupCacheMisses.Add(c.misses)
	}
	if c.resets != 0 {
		groupCacheResets.Add(c.resets)
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

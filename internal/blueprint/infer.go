package blueprint

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"blu/internal/obs"
	"blu/internal/parallel"
	"blu/internal/rng"
)

// Inference convergence telemetry: totals across every Infer call plus
// the residual distribution, so a run manifest shows whether the
// constraint-repair solver is converging and at what repair cost.
var (
	obsInfers       = obs.GetCounter("blueprint_infer_total")
	obsInferStarts  = obs.GetCounter("blueprint_starts_total")
	obsInferIters   = obs.GetCounter("blueprint_repair_iterations_total")
	obsConverged    = obs.GetCounter("blueprint_converged_total")
	obsScratchReuse = obs.GetCounter("blueprint_scratch_reuse_total")
	obsWarmStarts   = obs.GetCounter("blueprint_warm_starts_total")
	obsWarmHits     = obs.GetCounter("blueprint_warm_hits_total")
	obsLastViol     = obs.GetGauge("blueprint_last_violation")
	obsLastMaxViol  = obs.GetGauge("blueprint_last_max_violation")
	obsResidualHist = obs.GetHistogram("blueprint_violation_residual",
		[]float64{0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2})
)

// InferOptions tunes the deterministic topology-inference algorithm of
// Section 3.4.2. The zero value selects sensible defaults. The per-start
// budgets that scale with the client count N are fixed: maxIterations,
// maxHTs and stallLimit.
type InferOptions struct {
	// Tolerance is the per-constraint violation (in the −log domain)
	// below which a constraint counts as satisfied; it absorbs sampling
	// noise in the measured distributions (default 0.02).
	Tolerance float64
	// RandomStarts is the number of random initial topologies tried in
	// addition to the structured starts (default 8).
	RandomStarts int
	// Seed drives the random starts; runs are deterministic per seed.
	Seed uint64
	// Perturbations is the number of iterated-local-search rounds run
	// from each structured start's best topology (default 4): the best
	// state is randomly perturbed (terminal removed, split, or merged)
	// and repaired again, escaping local optima the greedy repair
	// cannot leave on its own.
	Perturbations int
	// WarmStart, when non-nil, seeds one extra repair chain from this
	// topology — typically the previous refresh cycle's blueprint — so a
	// small measurement delta costs a small repair instead of a cold
	// multi-start. When the warm chain already satisfies every
	// constraint within Tolerance, inference returns it without fanning
	// out the cold starts at all; otherwise the warm result competes in
	// the reduction (considered first, so exact ties keep the previous
	// blueprint — hysteresis against flapping between equivalent
	// topologies). The warm chain draws from its own rng stream derived
	// from (Seed, "warm"), so a nil WarmStart leaves every cold-start
	// stream — and therefore the inferred result — untouched. A
	// WarmStart whose N disagrees with the measurements is ignored.
	// Terminals with out-of-range clients or degenerate quiet
	// probabilities are dropped from the seed rather than erroring: a
	// stale blueprint is a hint, never a constraint.
	WarmStart *Topology
	// Parallelism bounds the worker goroutines running the independent
	// starts (0 = GOMAXPROCS, 1 = fully sequential). Each start draws
	// from its own rng stream derived from (Seed, start index) and the
	// reduction over start results is deterministic, so the inferred
	// topology is byte-identical at every setting — the knob only trades
	// wall-clock for cores.
	Parallelism int
	// IterationHook, when non-nil, is called once per constraint-repair
	// iteration on whichever goroutine runs the start. It exists for
	// fault injection (stalls) and fine-grained instrumentation; with a
	// hook installed the solver also checks the context every iteration
	// instead of every 64th.
	IterationHook func()
}

func (o InferOptions) withDefaults() InferOptions {
	if o.Tolerance <= 0 {
		o.Tolerance = 0.02
	}
	if o.RandomStarts <= 0 {
		// Both the zero value and (documented-default) negatives select
		// the default; a caller cannot turn random starts off entirely,
		// matching the paper's multi-start requirement.
		o.RandomStarts = 8
	}
	if o.Perturbations <= 0 {
		o.Perturbations = 4
	}
	return o
}

// maxIterations bounds the constraint-repair iterations per start. The
// constraint count grows as N², so the repair budget does too.
func maxIterations(n int) int { return 400 + 20*n*n }

// maxHTs caps the hidden terminals a candidate topology may use, which
// keeps the system from degenerating into one terminal per constraint.
func maxHTs(n int) int { return max(8, 4*n) }

// stallLimit ends a start after this many iterations without improving
// that start's best violation.
func stallLimit(n int) int { return 30 + 2*n }

// InferResult reports the outcome of topology inference.
type InferResult struct {
	// Topology is the inferred blueprint, normalized (merged duplicate
	// edge sets, sorted). It is freshly allocated per call and never
	// aliases solver scratch, so callers may retain it indefinitely.
	Topology *Topology
	// Violation is the total residual constraint violation of the
	// returned topology in the −log domain.
	Violation float64
	// MaxViolation is the largest single-constraint residual.
	MaxViolation float64
	// Converged reports whether every constraint is within tolerance.
	Converged bool
	// Starts is the number of initial topologies tried.
	Starts int
	// Iterations is the total constraint-repair iterations across starts.
	Iterations int
}

// Sentinel failures, matchable with errors.Is so callers (notably the
// controller's degradation ladder) can branch on failure class instead
// of string-matching.
var (
	// ErrNoClients is returned when measurements cover no clients.
	ErrNoClients = errors.New("blueprint: measurements cover no clients")
	// ErrTooManyClients is returned when the client count exceeds
	// MaxClients (the ClientSet word width).
	ErrTooManyClients = errors.New("blueprint: too many clients for ClientSet")
	// ErrAborted wraps a context cancellation or deadline expiry that
	// stopped inference before a result was produced.
	ErrAborted = errors.New("blueprint: inference aborted")
	// ErrInconsistent wraps measurement-consistency violations reported
	// by Measurements.Validate.
	ErrInconsistent = errors.New("blueprint: inconsistent measurements")
)

// Infer blue-prints the hidden-terminal interference topology from
// individual and pair-wise client access probabilities (Section 3.4),
// plus any third-order distributions present in the measurements (the
// Section 3.5 extension for skewed topologies).
//
// It runs the greedy constraint-repair adaptation from multiple starting
// topologies — the empty topology, a topology satisfying only the
// individual constraints, one satisfying only the pair constraints, a
// clique decomposition of the pair matrix, and several random
// topologies — with iterated-local-search perturbations around each,
// and returns the result with the smallest violation, breaking ties
// toward fewer hidden terminals.
//
// The starts are independent and run on up to opts.Parallelism workers.
// Every start's randomness is a stream derived from (Seed, start index)
// and the per-start results are reduced in start order with a total
// tie-break (violation band, hidden-terminal count, exact violation,
// then lowest start index), so the result is byte-identical for every
// Parallelism setting, including fully sequential.
func Infer(m *Measurements, opts InferOptions) (*InferResult, error) {
	return InferContext(context.Background(), m, opts)
}

// InferContext is Infer with caller-controlled cancellation: a
// cancelled or expired ctx aborts the multi-start fan-out promptly and
// returns an error wrapping both ErrAborted and the context error.
// InferContext(context.Background(), m, opts) is exactly Infer(m, opts),
// and for a given (measurements, options) the result is byte-identical
// whether or not a live (unfired) context is supplied.
func InferContext(ctx context.Context, m *Measurements, opts InferOptions) (*InferResult, error) {
	if m == nil || m.N == 0 {
		return nil, ErrNoClients
	}
	if m.N > MaxClients {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooManyClients, m.N, MaxClients)
	}
	opts = opts.withDefaults()
	target := m.Transform()
	root := rng.New(opts.Seed)
	structured := structuredStarts(target, opts)

	// The empty start doubles as a cheap triviality probe: when greedy
	// repair from nothing already satisfies every constraint with zero
	// hidden terminals, there is no interference to blueprint and no
	// reason to fan out the remaining starts.
	probe := newSolver(target, structured[0], opts)
	probeIters := probe.run(ctx, opts)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrAborted, err)
	}
	if probe.bestTotal <= opts.Tolerance && len(probe.bestHTs) == 0 {
		return finishInfer(target, solution{total: probe.bestTotal, hts: probe.bestHTs}, opts, 1, probeIters), nil
	}

	// Warm start: one chain seeded from the previous blueprint, on its
	// own rng stream so the cold starts below are byte-identical with or
	// without it. A small measurement delta usually leaves the previous
	// topology within a few repair moves of feasible; when the warm
	// chain converges, the whole multi-start fan-out is skipped — that
	// early exit is the streaming refresh loop's speedup.
	var warm chainResult
	if opts.WarmStart != nil && opts.WarmStart.N == m.N {
		if obs.Enabled() {
			obsWarmStarts.Inc()
		}
		// A sane seed that already satisfies every constraint is returned
		// verbatim (a fresh copy, never an alias): re-solving it could only
		// wobble Q within float noise, and the serving refresh loop depends
		// on the fixed point — unchanged measurements + unchanged seed →
		// bit-identical blueprint → stable cache key.
		if topo, total, maxViol, ok := warmVerbatim(target, opts.WarmStart, opts.Tolerance); ok {
			if obs.Enabled() {
				obsWarmHits.Inc()
			}
			res := &InferResult{
				Topology: topo, Violation: total, MaxViolation: maxViol,
				Converged: true, Starts: 2, Iterations: probeIters,
			}
			if obs.Enabled() {
				obsInfers.Inc()
				obsInferStarts.Add(int64(res.Starts))
				obsInferIters.Add(int64(res.Iterations))
				obsConverged.Inc()
				obsLastViol.Set(res.Violation)
				obsLastMaxViol.Set(res.MaxViolation)
				obsResidualHist.Observe(res.Violation)
			}
			return res, nil
		}
		warm = runChain(ctx, target, opts, nil, warmStartTopo(target, opts.WarmStart), opts.Perturbations, root.Split("warm"))
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrAborted, err)
		}
		if warm.ok && warm.sol.total <= opts.Tolerance {
			if obs.Enabled() {
				obsWarmHits.Inc()
			}
			return finishInfer(target, warm.sol, opts, 1+warm.starts, probeIters+warm.iters), nil
		}
	}

	// Fan out: every start — structured or random — together with its
	// iterated-local-search chain is one independent task whose rng
	// streams depend only on (Seed, task index), so each task computes
	// the same chain on any worker in any order. Results land in slots
	// indexed by task. Each task owns one scratch solver reused (reset,
	// not reallocated) across its whole perturbation chain; only small
	// detached snapshots survive the task.
	nTasks := len(structured) + opts.RandomStarts
	chains := make([]chainResult, nTasks)
	err := parallel.ForEach(ctx, opts.Parallelism, nTasks, func(idx int) error {
		pr := root.SplitIndex("perturb", idx)
		if idx < len(structured) {
			var initial *solverState
			if idx == 0 {
				initial = probe // already repaired; reuse, don't recompute
			}
			chains[idx] = runChain(ctx, target, opts, initial, structured[idx], opts.Perturbations, pr)
			return nil
		}
		start := randomStart(target, opts, root.SplitIndex("start", idx-len(structured)))
		// Random starts get a single perturbation round, matching the
		// original escape heuristic for unconverged random repairs.
		chains[idx] = runChain(ctx, target, opts, nil, start, 1, pr)
		return nil
	})
	if err == nil {
		// ForEach's inline path can return nil even when ctx fired during
		// the final task; a fired context means some chains may have been
		// cut short, so the reduction would not be deterministic — treat
		// it as an abort, never as a result.
		err = ctx.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrAborted, err)
	}

	// Deterministic reduction in task order: betterSolution is a strict
	// comparison on (violation band, terminal count, violation), and
	// replacing only on strictly-better keeps the lowest-index winner on
	// ties — the same winner a sequential scan would pick.
	var best solution
	haveBest := false
	starts, iters := 0, probeIters
	if warm.ok {
		// The warm result enters the reduction first: a cold start must
		// be strictly better to displace the previous blueprint.
		best = warm.sol
		haveBest = true
	}
	starts += warm.starts
	iters += warm.iters
	for i := range chains {
		cr := &chains[i]
		starts += cr.starts
		iters += cr.iters
		if cr.ok && (!haveBest || betterSolution(cr.sol.total, len(cr.sol.hts), best.total, len(best.hts), opts.Tolerance)) {
			best = cr.sol
			haveBest = true
		}
	}
	return finishInfer(target, best, opts, starts, iters), nil
}

// solution is a solver snapshot detached from scratch: the best total
// violation seen and the hidden-terminal set that achieved it. Chains
// hand solutions (never live solver state) to the reduction, so scratch
// reuse can never leak into a result.
type solution struct {
	total float64
	hts   []ht
}

// chainResult is one start task's locally reduced outcome.
type chainResult struct {
	sol    solution
	ok     bool
	starts int
	iters  int
}

// runChain runs one start plus its iterated-local-search chain: repair
// the initial topology, then up to maxPerturb rounds of perturb-and-
// repair around the best state seen, keeping the chain-best solution.
// initial, when non-nil, is an already-repaired solver reused as the
// chain head (its iterations are accounted by the caller). The chain
// owns exactly one solver: each perturbation round resets it in place
// instead of allocating a fresh one.
func runChain(ctx context.Context, target *Transformed, opts InferOptions, initial *solverState, start startTopo, maxPerturb int, pr *rng.Source) chainResult {
	var cr chainResult
	record := func(s *solverState) {
		cr.starts++
		if !cr.ok || betterSolution(s.bestTotal, len(s.bestHTs), cr.sol.total, len(cr.sol.hts), opts.Tolerance) {
			cr.sol.total = s.bestTotal
			cr.sol.hts = append(cr.sol.hts[:0], s.bestHTs...)
			cr.ok = true
		}
	}
	s := initial
	if s == nil {
		s = newSolver(target, start, opts)
		cr.iters += s.run(ctx, opts)
	}
	record(s)
	// The perturbation base: the best (total, topology) seen so far,
	// copied out of the solver so resetting the scratch cannot corrupt
	// the next perturbation's seed state.
	curTotal := s.bestTotal
	curHTs := append([]ht(nil), s.bestHTs...)
	var perturbBuf startTopo
	for p := 0; p < maxPerturb; p++ {
		if curTotal <= opts.Tolerance || ctx.Err() != nil {
			break
		}
		perturbBuf = perturbInto(perturbBuf, curHTs, pr)
		s.reset(perturbBuf)
		if obs.Enabled() {
			obsScratchReuse.Inc()
		}
		cr.iters += s.run(ctx, opts)
		record(s)
		if s.bestTotal < curTotal {
			curTotal = s.bestTotal
			curHTs = append(curHTs[:0], s.bestHTs...)
		}
	}
	return cr
}

// finishInfer converts the winning solution into the reported result:
// normalize, prune noise-fitting terminals, score residuals. The
// returned topology is built fresh — it never shares backing arrays
// with solver scratch or the winning chain's snapshot.
func finishInfer(target *Transformed, best solution, opts InferOptions, starts, iters int) *InferResult {
	res := &InferResult{Starts: starts, Iterations: iters}
	topo := pruneInsignificant(target, topologyFrom(target.N, best.hts).Normalize(), opts.Tolerance)
	res.Topology = topo
	res.Violation, res.MaxViolation = Residual(target, topo)
	res.Converged = res.MaxViolation <= opts.Tolerance
	if obs.Enabled() {
		obsInfers.Inc()
		obsInferStarts.Add(int64(starts))
		obsInferIters.Add(int64(iters))
		if res.Converged {
			obsConverged.Inc()
		}
		obsLastViol.Set(res.Violation)
		obsLastMaxViol.Set(res.MaxViolation)
		obsResidualHist.Observe(res.Violation)
	}
	return res
}

// pruneInsignificant enforces the minimal-h objective on the final
// topology: any hidden terminal whose removal keeps every constraint
// within tolerance (or no worse than it already is) is noise-fitting
// and dropped, weakest first. Candidate topologies and residual sums
// live in two local buffers swapped back and forth, so the prune loop
// costs no allocation per attempt; the returned topology is one of
// those locals (or the input), never solver scratch.
func pruneInsignificant(target *Transformed, topo *Topology, tol float64) *Topology {
	var rs residualScratch
	_, curMax := rs.residual(target, topo)
	// A NaN residual (degenerate targets from unclamped measurements)
	// poisons every comparison below to false, so the loop degrades to
	// a no-op instead of pruning on garbage.
	bound := math.Max(tol, curMax)
	// Work on a detached copy: the buffer swap below would otherwise
	// recycle the caller's topology as candidate scratch and overwrite
	// its terminal slice in place.
	topo = &Topology{N: topo.N, HTs: append([]HiddenTerminal(nil), topo.HTs...)}
	cand := &Topology{N: topo.N}
	for {
		removed := false
		weakest, weakestQ := -1, math.Inf(1)
		for k, h := range topo.HTs {
			if h.Q < weakestQ {
				weakest, weakestQ = k, h.Q
			}
		}
		if weakest < 0 {
			break
		}
		for offset := 0; offset < len(topo.HTs); offset++ {
			k := (weakest + offset) % len(topo.HTs)
			cand.HTs = append(cand.HTs[:0], topo.HTs[:k]...)
			cand.HTs = append(cand.HTs, topo.HTs[k+1:]...)
			if _, m := rs.residual(target, cand); m <= bound {
				topo, cand = cand, topo
				removed = true
				break
			}
		}
		if !removed {
			break
		}
	}
	return topo
}

// betterSolution ranks candidate solutions by (violation, terminal
// count): smaller violation first (within tolerance bands so noise does
// not dominate), then fewer hidden terminals, then strictly smaller
// violation. A NaN violation is unordered garbage (degenerate inputs can
// produce one) and must never win a multi-start reduction: NaN loses to
// everything, including another NaN (the reduction then keeps the
// earlier chain). Bands are compared as floats — math.Floor equals
// integer truncation for the non-negative totals the solver produces
// and stays exact where an int conversion would overflow on ±Inf.
func betterSolution(av float64, ah int, bv float64, bh int, tol float64) bool {
	if math.IsNaN(av) {
		return false
	}
	if math.IsNaN(bv) {
		return true
	}
	aBand, bBand := math.Floor(av/tol), math.Floor(bv/tol)
	if aBand != bBand {
		return aBand < bBand
	}
	if ah != bh {
		return ah < bh
	}
	return av < bv
}

// Residual computes the total and maximum constraint violation of topo
// against the transformed measurement targets (individuals, pairs, and
// any triple constraints), in the −log domain. If any single residual
// is NaN both results are NaN — a degenerate constraint must never be
// invisible to a convergence or prune decision.
func Residual(t *Transformed, topo *Topology) (total, maxViol float64) {
	var rs residualScratch
	return rs.residual(t, topo)
}

// residualScratch holds the constraint-sum buffers one Residual
// evaluation needs, so repeated scoring (the pruneInsignificant loop)
// reuses them instead of allocating three slices per candidate. It also
// memoizes the −log(1−q) transform: prune candidates share almost all
// their terminals with the topology they were derived from, so the same
// q values recur across every candidate evaluation. The memo is keyed
// by exact bit equality and QFromProb is deterministic, so a hit returns
// bit-for-bit the value a fresh computation would.
type residualScratch struct {
	A, B, C []float64
	nq      int
	qk, qv  [32]float64
}

func (rs *residualScratch) qTransformed(q float64) float64 {
	for i := 0; i < rs.nq; i++ {
		if rs.qk[i] == q {
			return rs.qv[i]
		}
	}
	Q := QFromProb(q)
	if rs.nq < len(rs.qk) {
		rs.qk[rs.nq], rs.qv[rs.nq] = q, Q
		rs.nq++
	}
	return Q
}

func (rs *residualScratch) residual(t *Transformed, topo *Topology) (total, maxViol float64) {
	n := t.N
	if cap(rs.A) < n {
		rs.A = make([]float64, n)
		rs.B = make([]float64, n*n)
	}
	rs.A = rs.A[:n]
	rs.B = rs.B[:n*n]
	clear(rs.A)
	clear(rs.B)
	if cap(rs.C) < len(t.T3) {
		rs.C = make([]float64, len(t.T3))
	}
	rs.C = rs.C[:len(t.T3)]
	clear(rs.C)
	for _, ht := range topo.HTs {
		Q := rs.qTransformed(ht.Q)
		for v := uint64(ht.Clients); v != 0; v &= v - 1 {
			i := bits.TrailingZeros64(v)
			rs.A[i] += Q
			for w := v & (v - 1); w != 0; w &= w - 1 {
				rs.B[i*n+bits.TrailingZeros64(w)] += Q
			}
		}
		for idx := range t.T3 {
			if ht.Clients.Contains(t.T3[idx].Clients) {
				rs.C[idx] += Q
			}
		}
	}
	for i := 0; i < n; i++ {
		v := math.Abs(rs.A[i] - t.PI[i])
		total += v
		if v > maxViol {
			maxViol = v
		}
		row := rs.B[i*n:]
		trow := t.pij[i*n:]
		for j := i + 1; j < n; j++ {
			v := math.Abs(row[j] - trow[j])
			total += v
			if v > maxViol {
				maxViol = v
			}
		}
	}
	for idx := range t.T3 {
		v := math.Abs(rs.C[idx] - t.T3[idx].Target)
		total += v
		if v > maxViol {
			maxViol = v
		}
	}
	// A NaN residual (degenerate targets) is skipped by the > fold
	// above, which would leave it invisible to MaxViolation — letting
	// Converged report true and pruneInsignificant drop terminals on
	// garbage comparisons. The total is NaN-sticky, so surface it.
	if math.IsNaN(total) {
		maxViol = total
	}
	return total, maxViol
}

// maxQ caps Q(k) = −log(1−q) so q stays strictly below 1.
const maxQ = 13.8 // q ≈ 1 − 1e−6

// solverState is one constraint-repair run: the working topology in the
// −log domain plus incrementally maintained constraint sums. It is the
// per-start scratch of the inference kernel — reset reinitializes it in
// place for the next start in a chain, so the repair inner loops run
// allocation-free once the buffers have grown to their working size.
type solverState struct {
	n      int
	target *Transformed
	hts    []ht // working set; Q in transformed domain
	A      []float64
	B      []float64 // upper-triangular i<j at [i*n+j]
	C      []float64 // triple-constraint sums, aligned with target.T3
	total  float64

	bestTotal float64
	bestHTs   []ht
}

// ht is a working hidden terminal with Q in the transformed domain.
type ht struct {
	Q       float64
	clients ClientSet
}

type startTopo []ht

func newSolver(target *Transformed, start startTopo, opts InferOptions) *solverState {
	n := target.N
	s := &solverState{
		n:      n,
		target: target,
		A:      make([]float64, n),
		B:      make([]float64, n*n),
		C:      make([]float64, len(target.T3)),
	}
	s.reset(start)
	return s
}

// reset reinitializes the scratch for a fresh start topology: zeroed
// constraint sums, the filtered start set, and a new best snapshot —
// exactly the state a newly allocated solver would hold, without the
// allocations.
func (s *solverState) reset(start startTopo) {
	clear(s.A)
	clear(s.B)
	clear(s.C)
	s.hts = s.hts[:0]
	for _, h := range start {
		if h.clients.Empty() || h.Q <= 0 {
			continue
		}
		s.hts = append(s.hts, h)
		s.addSums(h.clients, h.Q)
	}
	s.total = s.recomputeTotal()
	s.snapshot()
}

// addSums adds dq to every constraint sum an edge set contributes to.
func (s *solverState) addSums(set ClientSet, dq float64) {
	A, B, n := s.A, s.B, s.n
	for v := uint64(set); v != 0; v &= v - 1 {
		i := bits.TrailingZeros64(v)
		A[i] += dq
		row := B[i*n:]
		for w := v & (v - 1); w != 0; w &= w - 1 {
			row[bits.TrailingZeros64(w)] += dq
		}
	}
	for idx := range s.target.T3 {
		if set.Contains(s.target.T3[idx].Clients) {
			s.C[idx] += dq
		}
	}
}

func (s *solverState) recomputeTotal() float64 {
	var total float64
	for i := 0; i < s.n; i++ {
		total += math.Abs(s.A[i] - s.target.PI[i])
		for j := i + 1; j < s.n; j++ {
			total += math.Abs(s.B[i*s.n+j] - s.target.PIJ(i, j))
		}
	}
	for idx := range s.target.T3 {
		total += math.Abs(s.C[idx] - s.target.T3[idx].Target)
	}
	return total
}

func (s *solverState) snapshot() {
	s.bestTotal = s.total
	s.bestHTs = append(s.bestHTs[:0], s.hts...)
}

// violDelta returns the change in |sum−target| if sum changes by d.
func violDelta(sum, target, d float64) float64 {
	return math.Abs(sum+d-target) - math.Abs(sum-target)
}

// deltaReplace returns the total-violation change of replacing a hidden
// terminal (oldQ, oldC) with (newQ, newC). Either side may be the empty
// terminal (q=0, no clients) to express insertion or deletion. This is
// the single primitive every adaptation move reduces to, and it is
// exact for individual, pair, and triple constraints alike. It visits
// only the constraints the union of both edge sets touches — the
// incremental-residual contract — and walks them by bit iteration, so
// the innermost solver loop allocates nothing.
func (s *solverState) deltaReplace(oldQ float64, oldC ClientSet, newQ float64, newC ClientSet) float64 {
	nu, ou := uint64(newC), uint64(oldC)
	u := nu | ou
	n := s.n
	A, B := s.A, s.B
	PI, pij := s.target.PI, s.target.pij
	var delta float64
	for v := u; v != 0; v &= v - 1 {
		i := bits.TrailingZeros64(v)
		inew := nu>>uint(i)&1 != 0
		iold := ou>>uint(i)&1 != 0
		var d float64
		if inew {
			d = newQ
		}
		if iold {
			d -= oldQ
		}
		if d != 0 {
			delta += violDelta(A[i], PI[i], d)
		}
		row := B[i*n:]
		trow := pij[i*n:]
		for w := v & (v - 1); w != 0; w &= w - 1 {
			j := bits.TrailingZeros64(w)
			var dp float64
			if inew && nu>>uint(j)&1 != 0 {
				dp = newQ
			}
			if iold && ou>>uint(j)&1 != 0 {
				dp -= oldQ
			}
			if dp != 0 {
				delta += violDelta(row[j], trow[j], dp)
			}
		}
	}
	for idx := range s.target.T3 {
		t3 := &s.target.T3[idx]
		if !ClientSet(u).Contains(t3.Clients) {
			continue
		}
		var d float64
		if newC.Contains(t3.Clients) {
			d = newQ
		}
		if oldC.Contains(t3.Clients) {
			d -= oldQ
		}
		if d != 0 {
			delta += violDelta(s.C[idx], t3.Target, d)
		}
	}
	return delta
}

// deltaQChange is deltaReplace specialized for moves that keep the edge
// set and change only Q (decrease, increase, or a fresh terminal from
// oldQ = 0): every constraint inside set shifts by the same d = newQ −
// oldQ. The generic path computes that identical d once per touched
// constraint, so this produces bit-for-bit the same violDelta sequence
// while skipping every membership test.
func (s *solverState) deltaQChange(set ClientSet, oldQ, newQ float64) float64 {
	dq := newQ - oldQ
	if dq == 0 {
		return 0
	}
	n := s.n
	A, B := s.A, s.B
	PI, pij := s.target.PI, s.target.pij
	var delta float64
	for v := uint64(set); v != 0; v &= v - 1 {
		i := bits.TrailingZeros64(v)
		delta += violDelta(A[i], PI[i], dq)
		row := B[i*n:]
		trow := pij[i*n:]
		for w := v & (v - 1); w != 0; w &= w - 1 {
			j := bits.TrailingZeros64(w)
			delta += violDelta(row[j], trow[j], dq)
		}
	}
	for idx := range s.target.T3 {
		t3 := &s.target.T3[idx]
		if set.Contains(t3.Clients) {
			delta += violDelta(s.C[idx], t3.Target, dq)
		}
	}
	return delta
}

// deltaEdge is deltaReplace specialized for moves that keep Q and attach
// or detach clients: base is the union edge set (the new set when
// attaching, the old when detaching) and changed ⊆ base the clients
// added (dq = +Q) or removed (dq = −Q). Only the constraints touching
// changed shift — O(|base|·|changed|) pair visits instead of the generic
// O(|base|²) — and they are visited in exactly the generic path's
// ascending order, so the folded delta is bit-identical.
func (s *solverState) deltaEdge(base, changed ClientSet, dq float64) float64 {
	if dq == 0 {
		return 0
	}
	n := s.n
	A, B := s.A, s.B
	PI, pij := s.target.PI, s.target.pij
	ch := uint64(changed)
	var delta float64
	for v := uint64(base); v != 0; v &= v - 1 {
		i := bits.TrailingZeros64(v)
		rest := v & (v - 1)
		if ch>>uint(i)&1 != 0 {
			// i itself changes: its individual constraint and every pair
			// with a later base member shift by dq.
			delta += violDelta(A[i], PI[i], dq)
			if rest != 0 {
				row := B[i*n:]
				trow := pij[i*n:]
				for w := rest; w != 0; w &= w - 1 {
					j := bits.TrailingZeros64(w)
					delta += violDelta(row[j], trow[j], dq)
				}
			}
		} else if m := rest & ch; m != 0 {
			// i is stable: only its pairs with later changed members shift.
			row := B[i*n:]
			trow := pij[i*n:]
			for w := m; w != 0; w &= w - 1 {
				j := bits.TrailingZeros64(w)
				delta += violDelta(row[j], trow[j], dq)
			}
		}
	}
	for idx := range s.target.T3 {
		t3 := &s.target.T3[idx]
		if base.Contains(t3.Clients) && !t3.Clients.Intersect(changed).Empty() {
			delta += violDelta(s.C[idx], t3.Target, dq)
		}
	}
	return delta
}

// apply mutates the state: k >= 0 replaces that terminal (removing it
// entirely when newC is empty or newQ <= 0); k < 0 appends a new
// terminal. delta is the precomputed total-violation change of this
// exact replacement — every caller already scored the move through one
// of the delta primitives, so apply never re-derives it.
func (s *solverState) apply(k int, delta, newQ float64, newC ClientSet) {
	var oldQ float64
	var oldC ClientSet
	if k >= 0 {
		oldQ, oldC = s.hts[k].Q, s.hts[k].clients
	}
	s.total += delta
	// Update sums: remove old contribution, add new.
	if !oldC.Empty() && oldQ != 0 {
		s.addSums(oldC, -oldQ)
	}
	if !newC.Empty() && newQ > 0 {
		s.addSums(newC, newQ)
	}
	switch {
	case k < 0:
		s.hts = append(s.hts, ht{Q: newQ, clients: newC})
	case newC.Empty() || newQ <= 0:
		s.hts = append(s.hts[:k], s.hts[k+1:]...)
	default:
		s.hts[k] = ht{Q: newQ, clients: newC}
	}
}

// move is one candidate topology adaptation.
type move struct {
	delta float64 // change in total violation
	addHT bool    // whether the move grows the hidden-terminal count
	k     int     // terminal replaced (-1 = new)
	newQ  float64
	newC  ClientSet
}

// run iterates the constraint-repair adaptation until convergence,
// stall, cancellation, or the iteration budget; it returns iterations
// used. The best topology seen (not the final one) is kept. The
// context is polled every 64 iterations (every iteration when an
// IterationHook is installed, since a hook can make iterations slow),
// keeping the check off the hot path of healthy runs.
func (s *solverState) run(ctx context.Context, opts InferOptions) int {
	stall := 0
	iters := 0
	budget, stallAt := maxIterations(s.n), stallLimit(s.n)
	for ; iters < budget; iters++ {
		if opts.IterationHook != nil {
			opts.IterationHook()
			if ctx.Err() != nil {
				break
			}
		} else if iters&63 == 63 && ctx.Err() != nil {
			break
		}
		set, viol := s.worstConstraint()
		if viol <= opts.Tolerance {
			break
		}
		m, ok := s.bestMove(set, opts)
		if !ok {
			break
		}
		s.apply(m.k, m.delta, m.newQ, m.newC)
		s.prune()
		if s.total < s.bestTotal-1e-12 {
			s.snapshot()
			stall = 0
		} else {
			stall++
			if stall >= stallAt {
				break
			}
		}
	}
	return iters
}

// worstConstraint returns the maximally violated constraint, identified
// by its client member set (1 member = individual, 2 = pair,
// 3 = triple).
func (s *solverState) worstConstraint() (set ClientSet, viol float64) {
	n := s.n
	A, B := s.A, s.B
	PI, pij := s.target.PI, s.target.pij
	for a := 0; a < n; a++ {
		if v := math.Abs(A[a] - PI[a]); v > viol {
			set, viol = ClientSet(1)<<uint(a), v
		}
		row := B[a*n:]
		trow := pij[a*n:]
		for b := a + 1; b < n; b++ {
			if v := math.Abs(row[b] - trow[b]); v > viol {
				set, viol = ClientSet(1<<uint(a)|1<<uint(b)), v
			}
		}
	}
	for idx := range s.target.T3 {
		if v := math.Abs(s.C[idx] - s.target.T3[idx].Target); v > viol {
			set, viol = s.target.T3[idx].Clients, v
		}
	}
	return set, viol
}

// constraintSum returns the current sum for a constraint member set.
// Member extraction is bit arithmetic and triple constraints resolve
// through the Transformed's flat index, so the lookup allocates nothing
// and costs O(1) even with many third-order constraints.
func (s *solverState) constraintSum(set ClientSet) float64 {
	switch set.Count() {
	case 1:
		return s.A[bits.TrailingZeros64(uint64(set))]
	case 2:
		i := bits.TrailingZeros64(uint64(set))
		j := bits.TrailingZeros64(uint64(set) & (uint64(set) - 1))
		return s.B[i*s.n+j]
	default:
		if idx := s.target.tripleIndex(set); idx >= 0 {
			return s.C[idx]
		}
	}
	return 0
}

// constraintTarget returns the target for a constraint member set.
func (s *solverState) constraintTarget(set ClientSet) float64 {
	switch set.Count() {
	case 1:
		return s.target.PI[bits.TrailingZeros64(uint64(set))]
	case 2:
		i := bits.TrailingZeros64(uint64(set))
		j := bits.TrailingZeros64(uint64(set) & (uint64(set) - 1))
		return s.target.PIJ(i, j)
	default:
		if idx := s.target.tripleIndex(set); idx >= 0 {
			return s.target.T3[idx].Target
		}
	}
	return 0
}

// movePick folds candidate moves one at a time: the streaming
// equivalent of collecting them into a slice and scanning for the
// smallest violation delta, preferring moves that do not add hidden
// terminals on near-ties. Candidates with a NaN delta are unordered
// garbage (degenerate constraint targets) and are never picked — a
// slice scan would have let a NaN first candidate survive every
// comparison and be applied.
type movePick struct {
	best move
	have bool
}

func (p *movePick) consider(m move) {
	if math.IsNaN(m.delta) {
		return
	}
	if !p.have {
		p.best, p.have = m, true
		return
	}
	if m.delta < p.best.delta-1e-12 ||
		(math.Abs(m.delta-p.best.delta) <= 1e-12 && p.best.addHT && !m.addHT) {
		p.best = m
	}
}

// bestMove enumerates the Section 3.4.2 adaptations for the violated
// constraint with member set cs — generalized to any constraint order:
//
//	over-contribution: decrease Q of a covering terminal (floored at
//	removal), or detach one or all of the constraint's clients from it;
//	under-contribution: increase Q of a covering terminal, attach the
//	missing constraint clients to a partially-covering terminal, or
//	introduce a new terminal with exactly the constraint's edges.
//
// Candidates are scored as they are generated (movePick), so the
// enumeration allocates no slice however many moves are legal.
func (s *solverState) bestMove(cs ClientSet, opts InferOptions) (move, bool) {
	c := s.constraintSum(cs) - s.constraintTarget(cs)
	var p movePick
	if c > 0 { // over-contribution
		for k := range s.hts {
			h := s.hts[k]
			if !h.clients.Contains(cs) {
				continue
			}
			dec := math.Min(c, h.Q)
			p.consider(move{delta: s.deltaQChange(h.clients, h.Q, h.Q-dec),
				k: k, newQ: h.Q - dec, newC: h.clients})
			// Detach each constraint client individually, and all of
			// them together.
			for v := uint64(cs); v != 0; v &= v - 1 {
				r := bits.TrailingZeros64(v)
				p.consider(move{delta: s.deltaEdge(h.clients, ClientSet(1)<<uint(r), -h.Q),
					k: k, newQ: h.Q, newC: h.clients.Remove(r)})
			}
			if cs.Count() > 1 {
				p.consider(move{delta: s.deltaEdge(h.clients, cs, -h.Q),
					k: k, newQ: h.Q, newC: h.clients.Minus(cs)})
			}
		}
	} else { // under-contribution
		need := -c
		for k := range s.hts {
			h := s.hts[k]
			if h.clients.Contains(cs) {
				// (a) increase Q(k) by the deficit.
				if h.Q+need <= maxQ {
					p.consider(move{delta: s.deltaQChange(h.clients, h.Q, h.Q+need),
						k: k, newQ: h.Q + need, newC: h.clients})
				}
				continue
			}
			// (b) attach the missing clients to avail Q(k).
			u := h.clients.Union(cs)
			p.consider(move{delta: s.deltaEdge(u, cs.Minus(h.clients), h.Q),
				k: k, newQ: h.Q, newC: u})
		}
		// (c) a new hidden terminal supplying exactly the deficit.
		if len(s.hts) < maxHTs(s.n) && need <= maxQ {
			p.consider(move{delta: s.deltaQChange(cs, 0, need),
				addHT: true, k: -1, newQ: need, newC: cs})
		}
	}
	return p.best, p.have
}

// prune drops hidden terminals that lost all edges or whose access
// probability collapsed to zero.
func (s *solverState) prune() {
	for k := len(s.hts) - 1; k >= 0; k-- {
		h := s.hts[k]
		if h.clients.Empty() || h.Q <= 1e-9 {
			// Removal is a Q-change to zero over the terminal's own edge
			// set: every covered constraint loses exactly h.Q.
			s.apply(k, s.deltaQChange(h.clients, h.Q, 0), 0, 0)
		}
	}
}

// topologyFrom converts a solution's hidden terminals back to
// probability space as a freshly allocated topology.
func topologyFrom(n int, hts []ht) *Topology {
	t := &Topology{N: n}
	for _, h := range hts {
		if h.clients.Empty() || h.Q <= 0 {
			continue
		}
		t.HTs = append(t.HTs, HiddenTerminal{Q: ProbFromQ(h.Q), Clients: h.clients})
	}
	return t
}

// structuredStarts builds the non-random initial topologies: empty,
// individual-constraints-only, pair-constraints-only, and the clique
// decomposition.
func structuredStarts(t *Transformed, opts InferOptions) []startTopo {
	var starts []startTopo
	starts = append(starts, startTopo{}) // empty

	var indiv startTopo
	for i := 0; i < t.N; i++ {
		if t.PI[i] > opts.Tolerance {
			indiv = append(indiv, ht{Q: t.PI[i], clients: NewClientSet(i)})
		}
	}
	starts = append(starts, indiv)

	var pairs startTopo
	for i := 0; i < t.N; i++ {
		for j := i + 1; j < t.N; j++ {
			if v := t.PIJ(i, j); v > opts.Tolerance {
				pairs = append(pairs, ht{Q: v, clients: NewClientSet(i, j)})
			}
		}
	}
	starts = append(starts, pairs)
	starts = append(starts, cliqueStart(t, opts))
	return starts
}

// cliqueStart decomposes the pair-constraint matrix greedily into
// equal-weight cliques: each hidden terminal with edge set S and
// transformed access Q contributes exactly Q to every pair constraint
// inside S, so repeatedly extracting the heaviest remaining pair,
// growing it into a clique of comparable residual weight, and
// subtracting its weight reconstructs the hidden-terminal layer
// directly. Leftover individual deficits become single-client
// terminals. The repair loop then polishes the result.
func cliqueStart(t *Transformed, opts InferOptions) startTopo {
	n := t.N
	// Residual pair and individual constraint matrices.
	R := make([]float64, n*n)
	RI := make([]float64, n)
	copy(RI, t.PI)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			R[i*n+j] = t.PIJ(i, j)
		}
	}
	at := func(a, b int) float64 {
		if a > b {
			a, b = b, a
		}
		return R[a*n+b]
	}
	sub := func(a, b int, v float64) {
		if a > b {
			a, b = b, a
		}
		R[a*n+b] -= v
		if R[a*n+b] < 0 {
			R[a*n+b] = 0
		}
	}

	var start startTopo
	limit := maxHTs(n)
	for len(start) < limit {
		// Heaviest remaining pair seeds the clique.
		bi, bj, best := -1, -1, opts.Tolerance
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if R[i*n+j] > best {
					bi, bj, best = i, j, R[i*n+j]
				}
			}
		}
		if bi < 0 {
			break
		}
		members := []int{bi, bj}
		in := NewClientSet(bi, bj)
		q := best
		// Grow while some client shares above-noise residual weight with
		// every current member (then it is covered by the same hidden
		// terminal; the min over members blocks unrelated cliques).
		for {
			bestL, bestMin := -1, math.Max(2*opts.Tolerance, 0.1*q)
			for l := 0; l < n; l++ {
				if in.Has(l) {
					continue
				}
				minR := math.Inf(1)
				for _, s := range members {
					if v := at(l, s); v < minR {
						minR = v
					}
				}
				if minR > bestMin {
					bestL, bestMin = l, minR
				}
			}
			if bestL < 0 {
				break
			}
			members = append(members, bestL)
			in = in.Add(bestL)
			if bestMin < q {
				q = bestMin
			}
		}
		for ai, a := range members {
			for _, b := range members[ai+1:] {
				sub(a, b, q)
			}
			RI[a] -= q
		}
		start = append(start, ht{Q: q, clients: in})
	}
	// Residual individual-only interference: single-client terminals.
	for i := 0; i < n && len(start) < limit; i++ {
		if RI[i] > opts.Tolerance {
			start = append(start, ht{Q: RI[i], clients: NewClientSet(i)})
		}
	}
	return start
}

// perturbInto randomly mutates a converged topology — removing,
// splitting, or merging a hidden terminal — so the repair loop explores
// a different basin from an almost-right configuration. The result is
// built in dst's backing array (grown as needed), letting a chain reuse
// one buffer across all its perturbation rounds.
func perturbInto(dst startTopo, hts []ht, r *rng.Source) startTopo {
	start := append(dst[:0], hts...)
	if len(start) == 0 {
		return start
	}
	switch r.Intn(3) {
	case 0: // remove a random terminal
		k := r.Intn(len(start))
		start = append(start[:k], start[k+1:]...)
	case 1: // split a multi-client terminal into two halves
		k := r.Intn(len(start))
		members := start[k].clients
		if members.Count() < 2 {
			break
		}
		var a, b ClientSet
		for v := uint64(members); v != 0; v &= v - 1 {
			m := bits.TrailingZeros64(v)
			if r.Bool(0.5) {
				a = a.Add(m)
			} else {
				b = b.Add(m)
			}
		}
		if a.Empty() || b.Empty() {
			break
		}
		q := start[k].Q
		start[k] = ht{Q: q, clients: a}
		start = append(start, ht{Q: q, clients: b})
	default: // merge two terminals into their union
		if len(start) < 2 {
			break
		}
		k1 := r.Intn(len(start))
		k2 := r.Intn(len(start))
		if k1 == k2 {
			break
		}
		merged := ht{
			Q:       math.Max(start[k1].Q, start[k2].Q),
			clients: start[k1].clients.Union(start[k2].clients),
		}
		if k1 > k2 {
			k1, k2 = k2, k1
		}
		start[k1] = merged
		start = append(start[:k2], start[k2+1:]...)
	}
	return start
}

// randomStart draws a random topology with a random number of hidden
// terminals, random edge sets biased toward small degree, and random
// access probabilities bounded by the largest individual constraint.
func randomStart(t *Transformed, opts InferOptions, r *rng.Source) startTopo {
	// Only clients that actually see interference participate.
	var active []int
	var maxPI float64
	for i := 0; i < t.N; i++ {
		if t.PI[i] > opts.Tolerance {
			active = append(active, i)
		}
		if t.PI[i] > maxPI {
			maxPI = t.PI[i]
		}
	}
	if len(active) == 0 {
		return nil
	}
	h := 1 + r.Intn(min(2*len(active), maxHTs(t.N)))
	start := make(startTopo, 0, h)
	for k := 0; k < h; k++ {
		var set ClientSet
		// Average degree around 2, at least 1.
		for _, i := range active {
			if r.Bool(2 / float64(len(active))) {
				set = set.Add(i)
			}
		}
		if set.Empty() {
			set = set.Add(active[r.Intn(len(active))])
		}
		q := r.Float64() * maxPI
		if q <= 0 {
			continue
		}
		start = append(start, ht{Q: q, clients: set})
	}
	return start
}

// warmStartTopo converts a previous blueprint into a solver start.
// Probabilities move to the −log domain; terminals that cannot seed a
// valid solver state — empty or out-of-range edge sets, q outside
// (0, 1) — are dropped, and near-certain q is capped at maxQ so a stale
// blueprint can never inject an infinite constraint sum.
func warmStartTopo(t *Transformed, topo *Topology) startTopo {
	full := fullSet(t.N)
	st := make(startTopo, 0, len(topo.HTs))
	for _, h := range topo.HTs {
		clients := h.Clients.Intersect(full)
		if clients.Empty() {
			continue
		}
		Q := QFromProb(h.Q)
		if math.IsNaN(Q) || Q <= 0 {
			continue
		}
		if Q > maxQ {
			Q = maxQ
		}
		st = append(st, ht{Q: Q, clients: clients})
	}
	return st
}

// warmVerbatim reports whether a warm seed can be returned unchanged:
// every terminal must be one the solver itself could have produced
// (clients inside [0, n), q in (0, 1) below the maxQ cap) and the seed
// must already satisfy every constraint of the new measurements within
// tolerance. On success it returns a fresh copy of the seed plus its
// residuals; any defect falls back to the warm repair chain.
func warmVerbatim(t *Transformed, prev *Topology, tol float64) (*Topology, float64, float64, bool) {
	full := fullSet(t.N)
	for _, h := range prev.HTs {
		if h.Clients.Empty() || h.Clients.Intersect(full) != h.Clients {
			return nil, 0, 0, false
		}
		Q := QFromProb(h.Q)
		if math.IsNaN(Q) || Q <= 0 || Q > maxQ {
			return nil, 0, 0, false
		}
	}
	total, maxViol := Residual(t, prev)
	if !(total <= tol) {
		return nil, 0, 0, false
	}
	topo := &Topology{N: prev.N, HTs: append([]HiddenTerminal(nil), prev.HTs...)}
	return topo, total, maxViol, true
}

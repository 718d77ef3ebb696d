// Package mcmc is the Bayesian topology-inference baseline the paper
// evaluated before designing its deterministic algorithm (Section 3.4):
// a Metropolis–Hastings sampler over interference topologies whose
// stationary distribution concentrates on topologies maximizing the
// posterior probability of the observed client access distributions.
//
// As the paper notes, the sampler only converges *in distribution* — a
// scheduler needs one concrete topology, so the chain's maximum a
// posteriori sample is returned. BLU's deterministic constraint-repair
// inference exists because this baseline needs many iterations and its
// sampled topology can mismatch the ground truth; the ablation
// benchmark compares the two.
package mcmc

import (
	"context"
	"errors"
	"fmt"
	"math"

	"blu/internal/blueprint"
	"blu/internal/obs"
	"blu/internal/parallel"
	"blu/internal/rng"
)

// Sentinel failures, matchable with errors.Is.
var (
	// ErrNoClients is returned when measurements cover no clients.
	ErrNoClients = errors.New("mcmc: measurements cover no clients")
	// ErrAborted wraps a context cancellation or deadline expiry that
	// stopped sampling before a result was produced.
	ErrAborted = errors.New("mcmc: inference aborted")
)

// Sampler telemetry for the obs layer: chain volume, acceptance, and
// the residual of the returned MAP sample — enough to judge whether
// the baseline converged without re-running it.
var (
	obsInfers     = obs.GetCounter("mcmc_infer_total")
	obsChains     = obs.GetCounter("mcmc_chains_total")
	obsAccepted   = obs.GetCounter("mcmc_accepted_total")
	obsIterations = obs.GetCounter("mcmc_iterations_total")
	obsLastViol   = obs.GetGauge("mcmc_last_violation")
	obsLastAccept = obs.GetGauge("mcmc_last_acceptance_rate")
)

// The sampler's posterior: the likelihood is exp(−beta·violation)
// (higher beta concentrates it on low-violation topologies) and the
// prior exp(−htPenalty·h) favors sparse topologies of h terminals,
// capped at max(8, 4·N).
const (
	beta      = 40
	htPenalty = 0.5
)

// Options tunes the sampler. The zero value selects defaults.
type Options struct {
	// Iterations is the chain length (default 20000).
	Iterations int
	// Seed drives the chain.
	Seed uint64
	// Chains is the number of independent Metropolis–Hastings chains
	// (default 1). Chain 0 consumes exactly the single-chain stream for
	// Seed; additional chains draw from streams derived from
	// (Seed, chain index), so adding chains refines the MAP estimate
	// without perturbing chain 0.
	Chains int
	// Parallelism bounds the worker goroutines running the chains
	// (0 = GOMAXPROCS, 1 = sequential). Chains are reduced with a
	// deterministic tie-break (score, then chain index), so the result
	// is identical at every setting.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.Iterations <= 0 {
		o.Iterations = 20000
	}
	if o.Chains <= 0 {
		o.Chains = 1
	}
	return o
}

// Result reports the chain outcome.
type Result struct {
	// Topology is the maximum-a-posteriori topology visited by any chain.
	Topology *blueprint.Topology
	// Violation is its total constraint violation (−log domain).
	Violation float64
	// Accepted counts accepted proposals across all chains.
	Accepted int
	// Iterations is the total chain length run across all chains.
	Iterations int
	// Chains is the number of independent chains run.
	Chains int
	// BestChain is the index of the chain that produced the MAP sample
	// (ties break toward the lowest index).
	BestChain int
}

// state is the chain state in the transformed (−log) domain.
type state struct {
	n   int
	hts []stateHT
}

type stateHT struct {
	q       float64 // transformed Q(k)
	clients blueprint.ClientSet
}

func (s *state) clone() *state {
	c := &state{n: s.n, hts: make([]stateHT, len(s.hts))}
	copy(c.hts, s.hts)
	return c
}

func (s *state) topology() *blueprint.Topology {
	t := &blueprint.Topology{N: s.n}
	for _, h := range s.hts {
		if h.clients.Empty() || h.q <= 0 {
			continue
		}
		t.HTs = append(t.HTs, blueprint.HiddenTerminal{
			Q:       blueprint.ProbFromQ(h.q),
			Clients: h.clients,
		})
	}
	return t
}

// Infer runs opts.Chains independent Metropolis–Hastings chains over
// topologies and returns the MAP sample across them. Chains run on up
// to opts.Parallelism workers; each consumes its own seed-derived rng
// stream and results are reduced in chain order (higher posterior score
// wins, ties toward the lower chain index), so the returned result is
// identical for every Parallelism setting.
func Infer(m *blueprint.Measurements, opts Options) (*Result, error) {
	return InferContext(context.Background(), m, opts)
}

// InferContext is Infer with caller-controlled cancellation: a
// cancelled or expired ctx aborts the chains promptly (each chain polls
// the context every 128 iterations) and returns an error wrapping both
// ErrAborted and the context error. With a background context it is
// exactly Infer.
func InferContext(ctx context.Context, m *blueprint.Measurements, opts Options) (*Result, error) {
	if m == nil || m.N == 0 {
		return nil, ErrNoClients
	}
	opts = opts.withDefaults()
	target := m.Transform()
	root := rng.New(opts.Seed)

	// Derive every chain's stream before fanning out: chain 0 *consumes*
	// root (keeping the historical single-chain stream for Seed), so the
	// read-only SplitIndex derivations for the extra chains must all
	// happen before any chain starts advancing root's state.
	streams := make([]*rng.Source, opts.Chains)
	streams[0] = root
	for c := 1; c < opts.Chains; c++ {
		streams[c] = root.SplitIndex("chain", c)
	}

	outs := make([]chainOut, opts.Chains)
	err := parallel.ForEach(ctx, opts.Parallelism, opts.Chains, func(c int) error {
		outs[c] = runChain(ctx, target, m.N, opts, streams[c])
		return nil
	})
	if err == nil {
		// ForEach's inline path can return nil even when ctx fired during
		// the final chain; a fired context may have cut chains short, so
		// the MAP reduction would not be deterministic — abort instead.
		err = ctx.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrAborted, err)
	}

	res := &Result{Chains: opts.Chains}
	bestIdx := 0
	for c := range outs {
		res.Accepted += outs[c].accepted
		res.Iterations += opts.Iterations
		if c > 0 && outs[c].score > outs[bestIdx].score {
			bestIdx = c
		}
	}
	res.BestChain = bestIdx
	res.Topology = outs[bestIdx].best.topology().Normalize()
	res.Violation = outs[bestIdx].viol
	if obs.Enabled() {
		obsInfers.Inc()
		obsChains.Add(int64(res.Chains))
		obsAccepted.Add(int64(res.Accepted))
		obsIterations.Add(int64(res.Iterations))
		obsLastViol.Set(res.Violation)
		if res.Iterations > 0 {
			obsLastAccept.Set(float64(res.Accepted) / float64(res.Iterations))
		}
	}
	return res, nil
}

// chainOut is one chain's locally reduced outcome.
type chainOut struct {
	best     *state
	viol     float64
	score    float64
	accepted int
}

// runChain runs one Metropolis–Hastings chain from the empty topology
// and returns its MAP sample. A fired context ends the chain early;
// the caller discards the partial result.
func runChain(ctx context.Context, target *blueprint.Transformed, n int, opts Options, r *rng.Source) chainOut {
	cur := &state{n: n}
	curViol, _ := blueprint.Residual(target, cur.topology())
	curScore := -beta*curViol - htPenalty*float64(len(cur.hts))

	out := chainOut{best: cur.clone(), viol: curViol, score: curScore}
	for it := 0; it < opts.Iterations; it++ {
		if it&127 == 127 && ctx.Err() != nil {
			break
		}
		prop, ok := propose(cur, target, r)
		if !ok {
			continue
		}
		propViol, _ := blueprint.Residual(target, prop.topology())
		propScore := -beta*propViol - htPenalty*float64(len(prop.hts))
		// Metropolis acceptance (symmetric proposals assumed).
		if propScore >= curScore || r.Float64() < math.Exp(propScore-curScore) {
			cur, curViol, curScore = prop, propViol, propScore
			out.accepted++
			if curScore > out.score {
				out.best, out.viol, out.score = cur.clone(), curViol, curScore
			}
		}
	}
	return out
}

// propose draws one of the move kinds: add a hidden terminal, remove
// one, toggle an edge, or perturb an access probability.
func propose(cur *state, target *blueprint.Transformed, r *rng.Source) (*state, bool) {
	prop := cur.clone()
	switch r.Intn(4) {
	case 0: // add a terminal seeded from a violated constraint
		if len(prop.hts) >= max(8, 4*prop.n) {
			return nil, false
		}
		i := r.Intn(prop.n)
		set := blueprint.NewClientSet(i)
		if r.Bool(0.6) {
			set = set.Add(r.Intn(prop.n))
		}
		q := r.Float64() * maxTargetQ(target)
		if q <= 0 {
			return nil, false
		}
		prop.hts = append(prop.hts, stateHT{q: q, clients: set})
	case 1: // remove a terminal
		if len(prop.hts) == 0 {
			return nil, false
		}
		k := r.Intn(len(prop.hts))
		prop.hts = append(prop.hts[:k], prop.hts[k+1:]...)
	case 2: // toggle an edge
		if len(prop.hts) == 0 {
			return nil, false
		}
		k := r.Intn(len(prop.hts))
		i := r.Intn(prop.n)
		if prop.hts[k].clients.Has(i) {
			prop.hts[k].clients = prop.hts[k].clients.Remove(i)
			if prop.hts[k].clients.Empty() {
				prop.hts = append(prop.hts[:k], prop.hts[k+1:]...)
			}
		} else {
			prop.hts[k].clients = prop.hts[k].clients.Add(i)
		}
	default: // perturb Q(k) with a log-normal-ish random walk
		if len(prop.hts) == 0 {
			return nil, false
		}
		k := r.Intn(len(prop.hts))
		q := prop.hts[k].q * math.Exp(0.3*r.NormFloat64())
		if q <= 1e-6 || q > 13.8 {
			return nil, false
		}
		prop.hts[k].q = q
	}
	return prop, true
}

func maxTargetQ(t *blueprint.Transformed) float64 {
	m := 0.05
	for _, v := range t.PI {
		if v > m {
			m = v
		}
	}
	return m
}

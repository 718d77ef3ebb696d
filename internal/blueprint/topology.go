// Package blueprint implements the paper's core contribution: the
// interference blueprint — a bipartite topology of hidden terminals,
// their access distributions q(k), and their impact edges to clients —
// together with the deterministic inference algorithm (Section 3.4) that
// recovers the topology from only individual and pair-wise client access
// probabilities.
//
// Generative model: hidden terminal k is on air during a client's CCA
// independently with probability q(k); client i passes CCA iff no hidden
// terminal adjacent to it is on air, so
//
//	p(i)   = ∏_{k: z_ik=1} (1 − q(k))
//	p(i,j) = ∏_{k: z_ik ∨ z_jk} (1 − q(k))
//
// which in the −log transformed domain becomes the linear constraint
// system of Eqn 6.
package blueprint

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// HiddenTerminal is one inferred (or ground-truth) interference source.
type HiddenTerminal struct {
	// Q is the access probability q(k) ∈ [0, 1): the probability the
	// terminal is on air during a client CCA window.
	Q float64
	// Clients is the set of clients that sense this terminal's
	// transmissions and defer (the edges z_ik = 1).
	Clients ClientSet
}

// Topology is the interference blueprint (h, Q, Z) of Section 3.4: a
// single layer of hidden terminals with weighted edges to clients.
type Topology struct {
	// N is the number of clients (UEs) in the cell.
	N int
	// HTs is the hidden-terminal layer.
	HTs []HiddenTerminal
}

// Validate checks structural invariants: client indices in range, q(k)
// in [0, 1), and no empty edge sets.
func (t *Topology) Validate() error {
	if t.N < 0 || t.N > MaxClients {
		return fmt.Errorf("blueprint: invalid client count %d", t.N)
	}
	full := fullSet(t.N)
	for k, ht := range t.HTs {
		if !(ht.Q >= 0 && ht.Q < 1) { // written so NaN fails too
			return fmt.Errorf("blueprint: HT %d has q=%v outside [0,1)", k, ht.Q)
		}
		if ht.Clients.Empty() {
			return fmt.Errorf("blueprint: HT %d has no client edges", k)
		}
		if !full.Contains(ht.Clients) {
			return fmt.Errorf("blueprint: HT %d has edges %v outside client range [0,%d)", k, ht.Clients, t.N)
		}
	}
	return nil
}

func fullSet(n int) ClientSet {
	if n >= 64 {
		return ClientSet(^uint64(0))
	}
	return ClientSet(1<<uint(n)) - 1
}

// AccessProb returns p(i), the probability client i passes its CCA.
func (t *Topology) AccessProb(i int) float64 {
	p := 1.0
	for _, ht := range t.HTs {
		if ht.Clients.Has(i) {
			p *= 1 - ht.Q
		}
	}
	return p
}

// PairProb returns p(i,j), the probability clients i and j both pass
// their CCAs in the same subframe.
func (t *Topology) PairProb(i, j int) float64 {
	p := 1.0
	pair := NewClientSet(i, j)
	for _, ht := range t.HTs {
		if !ht.Clients.Intersect(pair).Empty() {
			p *= 1 - ht.Q
		}
	}
	return p
}

// ClearProb returns the probability that every client in set passes its
// CCA: the product of idle probabilities of all hidden terminals
// adjacent to the set.
func (t *Topology) ClearProb(set ClientSet) float64 {
	p := 1.0
	for _, ht := range t.HTs {
		if !ht.Clients.Intersect(set).Empty() {
			p *= 1 - ht.Q
		}
	}
	return p
}

// Condition returns the topology conditioned on the event that every
// client in the given set transmitted (Section 3.6, Fig 8): every hidden
// terminal adjacent to the set must have been silent, so those terminals
// are removed.
func (t *Topology) Condition(transmitted ClientSet) *Topology {
	c := &Topology{N: t.N}
	for _, ht := range t.HTs {
		if ht.Clients.Intersect(transmitted).Empty() {
			c.HTs = append(c.HTs, ht)
		}
	}
	return c
}

// Measure returns the exact access distributions this topology induces
// — the measurement a perfect, infinitely long measurement phase would
// produce. Used for ground-truth generation and round-trip tests.
func (t *Topology) Measure() *Measurements {
	m := NewMeasurements(t.N)
	for i := 0; i < t.N; i++ {
		m.P[i] = t.AccessProb(i)
		for j := i + 1; j < t.N; j++ {
			m.SetPair(i, j, t.PairProb(i, j))
		}
	}
	return m
}

// Normalize merges hidden terminals with identical edge sets (they are
// fundamentally indistinguishable from client observations), drops
// terminals with no edges or negligible access probability, and sorts
// terminals by edge set for stable comparison.
func (t *Topology) Normalize() *Topology {
	const negligible = 1e-9
	kept := make([]HiddenTerminal, 0, len(t.HTs))
	for _, ht := range t.HTs {
		if ht.Clients.Empty() || ht.Q <= negligible {
			continue
		}
		kept = append(kept, ht)
	}
	// Stable sort groups identical edge sets while preserving their
	// original relative order, so the merge below multiplies idle
	// probabilities in exactly input order — the same floating-point
	// result a map keyed by edge set and updated in input order gives,
	// without the map.
	sort.SliceStable(kept, func(a, b int) bool { return kept[a].Clients < kept[b].Clients })
	out := &Topology{N: t.N, HTs: make([]HiddenTerminal, 0, len(kept))}
	for _, ht := range kept {
		if n := len(out.HTs); n > 0 && out.HTs[n-1].Clients == ht.Clients {
			// Idle probabilities multiply: 1−q = (1−q1)(1−q2).
			out.HTs[n-1].Q = 1 - (1-out.HTs[n-1].Q)*(1-ht.Q)
			continue
		}
		out.HTs = append(out.HTs, ht)
	}
	return out
}

// Accuracy returns the paper's stringent inference-accuracy metric
// (Section 4.2.2): the fraction of ground-truth hidden terminals whose
// exact edge set appears among the inferred terminals. Duplicate edge
// sets are matched with multiplicity. An empty ground truth counts as
// perfectly inferred only if the inference is also empty.
//
// A nil topology on either side means "no blueprint available" — e.g.
// the controller's speculative rung never fired, so no truth snapshot
// exists — which is not the same claim as an empty (zero-interference)
// topology. Accuracy returns NaN for it: the metric is undefined, and
// NaN keeps the case out of averages instead of scoring it 0 or 1.
func Accuracy(truth, inferred *Topology) float64 {
	if truth == nil || inferred == nil {
		return math.NaN()
	}
	if len(truth.HTs) == 0 {
		if len(inferred.HTs) == 0 {
			return 1
		}
		return 0
	}
	avail := make(map[ClientSet]int)
	for _, ht := range inferred.HTs {
		avail[ht.Clients]++
	}
	matched := 0
	for _, ht := range truth.HTs {
		if avail[ht.Clients] > 0 {
			avail[ht.Clients]--
			matched++
		}
	}
	return float64(matched) / float64(len(truth.HTs))
}

// QError returns the mean absolute error between matched hidden
// terminals' access probabilities (terminals matched by exact edge set),
// and the count of matched terminals. Unmatched terminals are skipped.
func QError(truth, inferred *Topology) (mae float64, matched int) {
	byEdges := make(map[ClientSet][]float64)
	for _, ht := range inferred.HTs {
		byEdges[ht.Clients] = append(byEdges[ht.Clients], ht.Q)
	}
	var sum float64
	for _, ht := range truth.HTs {
		qs := byEdges[ht.Clients]
		if len(qs) == 0 {
			continue
		}
		sum += math.Abs(ht.Q - qs[0])
		byEdges[ht.Clients] = qs[1:]
		matched++
	}
	if matched == 0 {
		return 0, 0
	}
	return sum / float64(matched), matched
}

// String renders the topology compactly for logs:
// "N=4 h=2 [q=0.30→{0,1}] [q=0.10→{2}]".
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "N=%d h=%d", t.N, len(t.HTs))
	for _, ht := range t.HTs {
		fmt.Fprintf(&b, " [q=%.2f→%s]", ht.Q, ht.Clients)
	}
	return b.String()
}

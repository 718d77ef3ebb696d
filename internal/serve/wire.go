package serve

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"blu/internal/blueprint"
)

// Wire types: the JSON request/response schema of the blud endpoints.
// The schema is deliberately explicit (index/probability structs, not
// bare matrices) so a request is self-describing and partial inputs
// fail validation instead of silently zero-filling.

// PairProb is one measured pair-wise access probability p(i,j).
type PairProb struct {
	I int     `json:"i"`
	J int     `json:"j"`
	P float64 `json:"p"`
}

// TripleProb is one optional third-order joint access probability
// p(i,j,k) (the §3.5 extension for skewed topologies).
type TripleProb struct {
	I int     `json:"i"`
	J int     `json:"j"`
	K int     `json:"k"`
	P float64 `json:"p"`
}

// MeasurementsWire is the wire form of blueprint.Measurements.
type MeasurementsWire struct {
	// N is the client count.
	N int `json:"n"`
	// P[i] is the individual access probability p(i); length must be N.
	P []float64 `json:"p"`
	// Pairs lists p(i,j) for i != j. Unlisted pairs default to the
	// independence product after clamping.
	Pairs []PairProb `json:"pairs,omitempty"`
	// Triples lists optional third-order measurements.
	Triples []TripleProb `json:"triples,omitempty"`
}

// ToMeasurements validates the wire form and builds clamped
// measurements ready for inference.
func (w *MeasurementsWire) ToMeasurements() (*blueprint.Measurements, error) {
	if w.N < 1 || w.N > blueprint.MaxClients {
		return nil, fmt.Errorf("measurements: n=%d out of range [1,%d]", w.N, blueprint.MaxClients)
	}
	if len(w.P) != w.N {
		return nil, fmt.Errorf("measurements: %d marginals for n=%d clients", len(w.P), w.N)
	}
	m := blueprint.NewMeasurements(w.N)
	for i, p := range w.P {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("measurements: p[%d]=%v outside [0,1]", i, p)
		}
		m.P[i] = p
	}
	// Unlisted pairs fall back to independence (no evidence of shared
	// interferers), mirroring access.Estimator's unobserved-pair default.
	for i := 0; i < w.N; i++ {
		for j := i + 1; j < w.N; j++ {
			m.SetPair(i, j, m.P[i]*m.P[j])
		}
	}
	for _, pr := range w.Pairs {
		if pr.I < 0 || pr.I >= w.N || pr.J < 0 || pr.J >= w.N || pr.I == pr.J {
			return nil, fmt.Errorf("measurements: pair (%d,%d) out of range for n=%d", pr.I, pr.J, w.N)
		}
		if pr.P < 0 || pr.P > 1 || math.IsNaN(pr.P) {
			return nil, fmt.Errorf("measurements: p(%d,%d)=%v outside [0,1]", pr.I, pr.J, pr.P)
		}
		m.SetPair(pr.I, pr.J, pr.P)
	}
	for _, tr := range w.Triples {
		if tr.I < 0 || tr.I >= w.N || tr.J < 0 || tr.J >= w.N || tr.K < 0 || tr.K >= w.N ||
			tr.I == tr.J || tr.J == tr.K || tr.I == tr.K {
			return nil, fmt.Errorf("measurements: triple (%d,%d,%d) out of range for n=%d", tr.I, tr.J, tr.K, w.N)
		}
		if tr.P < 0 || tr.P > 1 || math.IsNaN(tr.P) {
			return nil, fmt.Errorf("measurements: p(%d,%d,%d)=%v outside [0,1]", tr.I, tr.J, tr.K, tr.P)
		}
		m.SetTriple(tr.I, tr.J, tr.K, tr.P)
	}
	// Clamp before digesting: requests that differ only by sampling-noise
	// violations of the consistency region canonicalize to the same
	// measurements, and Transform's logs stay finite.
	m.Clamp(1e-6)
	return m, nil
}

// InferOptionsWire is what a client may choose about a solve: only the
// seed of its random starts. The solver's budget (tolerance, starts,
// perturbations, iteration caps) is the server's, and Parallelism is a
// server resource decision (solverParallelism) that cannot change a
// response.
type InferOptionsWire struct {
	Seed uint64 `json:"seed,omitempty"`
}

// ToInferOptions maps the wire options onto blueprint.InferOptions; every
// other option keeps the solver default.
func (w InferOptionsWire) ToInferOptions() blueprint.InferOptions {
	return blueprint.InferOptions{Seed: w.Seed}
}

// HTWire is one hidden terminal on the wire.
type HTWire struct {
	Q       float64 `json:"q"`
	Clients []int   `json:"clients"`
}

// TopologyWire is the wire form of blueprint.Topology.
type TopologyWire struct {
	N   int      `json:"n"`
	HTs []HTWire `json:"hts"`
}

// ToTopology validates the wire form and builds the blueprint topology.
func (w *TopologyWire) ToTopology() (*blueprint.Topology, error) {
	if w.N < 1 || w.N > blueprint.MaxClients {
		return nil, fmt.Errorf("topology: n=%d out of range [1,%d]", w.N, blueprint.MaxClients)
	}
	topo := &blueprint.Topology{N: w.N}
	for k, ht := range w.HTs {
		var set blueprint.ClientSet
		for _, c := range ht.Clients {
			if c < 0 || c >= w.N {
				return nil, fmt.Errorf("topology: ht %d client %d out of range for n=%d", k, c, w.N)
			}
			set = set.Add(c)
		}
		topo.HTs = append(topo.HTs, blueprint.HiddenTerminal{Q: ht.Q, Clients: set})
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	return topo, nil
}

// TopologyToWire converts a blueprint topology into the wire form.
// Normalize first for a canonical (sorted, merged) rendering.
func TopologyToWire(t *blueprint.Topology) TopologyWire {
	w := TopologyWire{N: t.N, HTs: make([]HTWire, 0, len(t.HTs))}
	for _, ht := range t.HTs {
		w.HTs = append(w.HTs, HTWire{Q: ht.Q, Clients: ht.Clients.Members()})
	}
	return w
}

// InferRequest is the POST /v1/infer body. Exactly one measurement
// source must be present: inline Measurements, or Session naming a
// streaming session previously fed via POST /v1/observe — the server
// then infers from the session's windowed estimate, warm-starting from
// the session's previous blueprint. Session-keyed inference is
// JSON-only; the binary codec carries inline measurements.
type InferRequest struct {
	Session      string           `json:"session,omitempty"`
	Measurements MeasurementsWire `json:"measurements,omitempty"`
	Options      InferOptionsWire `json:"options,omitempty"`
	// TimeoutMS is the per-request deadline mapped onto
	// blueprint.InferContext; 0 selects the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// InferResponse is the POST /v1/infer result.
type InferResponse struct {
	Topology     TopologyWire `json:"topology"`
	Violation    float64      `json:"violation"`
	MaxViolation float64      `json:"max_violation"`
	Converged    bool         `json:"converged"`
	Starts       int          `json:"starts"`
	Iterations   int          `json:"iterations"`
}

// JointRequest is the POST /v1/joint body: a topology plus disjoint
// clear/blocked client sets.
type JointRequest struct {
	Topology  TopologyWire `json:"topology"`
	Clear     []int        `json:"clear,omitempty"`
	Blocked   []int        `json:"blocked,omitempty"`
	TimeoutMS int          `json:"timeout_ms,omitempty"`
}

// JointResponse reports P(clear, blocked̄) plus each client's marginal.
type JointResponse struct {
	Prob      float64   `json:"prob"`
	Marginals []float64 `json:"marginals"`
}

// ScheduleRequest is the POST /v1/schedule body.
type ScheduleRequest struct {
	Topology TopologyWire `json:"topology"`
	// NumRB and M describe the subframe resource grid.
	NumRB int `json:"num_rb"`
	M     int `json:"m"`
	// K caps distinct UEs per subframe (0 = unlimited).
	K int `json:"k,omitempty"`
	// Alpha is the PF EWMA window (0 = default 100).
	Alpha float64 `json:"alpha,omitempty"`
	// OverFactor is BLU's over-scheduling factor f (0 = default 2).
	OverFactor float64 `json:"over_factor,omitempty"`
	// Scheduler selects "blu" (default), "aa", or "pf".
	Scheduler string `json:"scheduler,omitempty"`
	// Rates[ue] holds the estimated per-RB goodput: either NumRB entries
	// or a single entry broadcast across all RBs.
	Rates [][]float64 `json:"rates"`
	// Backlog[ue], when present, is the finite-buffer queue in bits.
	Backlog []float64 `json:"backlog,omitempty"`
	// AvgThroughput[ue], when present, warm-starts the PF averages R_i.
	AvgThroughput []float64 `json:"avg_throughput,omitempty"`
	TimeoutMS     int       `json:"timeout_ms,omitempty"`
}

// ScheduleResponse is the granted allocation of one uplink subframe.
type ScheduleResponse struct {
	// RB[b] lists the UEs granted resource block b.
	RB [][]int `json:"rb"`
	// DistinctUEs is the number of distinct granted UEs (bounded by K).
	DistinctUEs int `json:"distinct_ues"`
	// Scheduler echoes the flavor that produced the grants.
	Scheduler string `json:"scheduler"`
}

// ObservationWire is one subframe's access outcome on the wire: the
// clients holding grants and the subset that passed CCA. Accessed
// entries must be in range; entries naming unscheduled clients are
// legal and simply carry no pair evidence (the estimator only counts
// scheduled clients).
type ObservationWire struct {
	Scheduled []int `json:"scheduled"`
	Accessed  []int `json:"accessed,omitempty"`
}

// ObserveRequest is the POST /v1/observe body: a batch of per-subframe
// observations folded into the windowed estimator of session Session
// (created on first use with N clients; subsequent batches must agree
// on N). Seal closes the session's current observation epoch after the
// batch, letting the window age the oldest epoch out once full.
type ObserveRequest struct {
	Session      string            `json:"session"`
	N            int               `json:"n"`
	Observations []ObservationWire `json:"observations"`
	Seal         bool              `json:"seal,omitempty"`
	TimeoutMS    int               `json:"timeout_ms,omitempty"`
}

// ObserveResponse reports what the batch did to the session: how many
// observations carried usable evidence, the current epoch, the
// session's canonical measurement digest after the fold, and how many
// cached inference results the digest change invalidated.
type ObserveResponse struct {
	Session     string `json:"session"`
	Folded      int    `json:"folded"`
	Epoch       int    `json:"epoch"`
	Digest      string `json:"digest"`
	Invalidated int    `json:"invalidated"`
	Evicted     int    `json:"evicted"`
}

// ErrorResponse is the uniform error body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status string `json:"status"`
}

// digestInfer computes the canonical digest an infer request is keyed
// by for coalescing and result caching: FNV-1a over the clamped
// measurement content, the seed and the warm seed — the only request
// inputs that reach the solver. Two requests that canonicalize to the
// same measurements and seeds share one solver run and one cache slot
// regardless of JSON formatting, pair order, or timeout.
func digestInfer(m *blueprint.Measurements, o blueprint.InferOptions) uint64 {
	d := newDigest()
	d.measurements(m)
	d.u(o.Seed)
	// A warm seed can change the inferred topology, so it is part of
	// the result identity — two requests over identical measurements
	// but different previous blueprints must not share a cache slot.
	if o.WarmStart != nil {
		d.u(uint64(o.WarmStart.N))
		d.u(uint64(len(o.WarmStart.HTs)))
		for _, ht := range o.WarmStart.HTs {
			d.u(uint64(ht.Clients))
			d.f(ht.Q)
		}
	}
	return d.h.Sum64()
}

// digestMeasurements is the canonical digest of measurement content
// alone — the per-session fingerprint observe updates and the
// invalidation protocol compares.
func digestMeasurements(m *blueprint.Measurements) uint64 {
	d := newDigest()
	d.measurements(m)
	return d.h.Sum64()
}

// digest is a tiny FNV-1a accumulator shared by the request keying and
// session fingerprinting paths.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) f(f float64) { d.u(math.Float64bits(f)) }

func (d *digest) measurements(m *blueprint.Measurements) {
	d.u(uint64(m.N))
	for i := 0; i < m.N; i++ {
		d.f(m.P[i])
	}
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			d.f(m.Pair(i, j))
		}
	}
	if m.NumTriples() > 0 {
		for i := 0; i < m.N; i++ {
			for j := i + 1; j < m.N; j++ {
				for k := j + 1; k < m.N; k++ {
					if p, ok := m.Triple(i, j, k); ok {
						d.u(uint64(i)<<12 | uint64(j)<<6 | uint64(k))
						d.f(p)
					}
				}
			}
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"blu/internal/blueprint"
	"blu/internal/fleet"
	"blu/internal/rng"
	"blu/internal/serve"
	"blu/internal/topology"
)

// The seeded generator. Every byte the system under test receives is
// made here from one rng.Source; nothing else in the harness draws
// random numbers. Topology size is the axis the solver's cost and
// identifiability depend on, so every pool cycles N over sizes.
var sizes = []int{8, 16, 24}

const (
	kindInferBinary  = iota // inline measurements, BLUW request and response
	kindInferJSON           // inline measurements, JSON both ways
	kindInferSession        // JSON infer naming a session
	kindObserve             // BLUW observe batch, BLUW ack
	kindSchedule            // JSON /v1/schedule
	numKinds
)

// request is one generated HTTP request plus what its check needs.
type request struct {
	kind int
	path string // "/v1/infer" ...
	cell string // routing key on routed workloads, else ""
	body []byte
	id   int // slot in the workload's expected-answer table
	strm int // index of the stream a stateful request belongs to
	n    int // client count the answer must carry
	nobs int // observations in an observe batch
	seal bool

	url, directURL string // filled once the servers listen
}

func (r *request) binary() bool { return r.kind == kindInferBinary || r.kind == kindObserve }

// scenarioTopo draws one enterprise-floor deployment (N UEs, 3N/2 WiFi
// stations, airtime ~ U[0.1,0.5]) and returns its ground-truth
// blueprint.
func scenarioTopo(r *rng.Source, n int) *blueprint.Topology {
	stations := 3 * n / 2
	sc, err := topology.NewScenario(topology.Config{NumUEs: n, NumStations: stations}, r.Split("scenario"))
	if err != nil {
		panic(err) // n is a generator constant inside [1, MaxClients]
	}
	ra := r.Split("airtime")
	airtime := make([]float64, stations)
	for k := range airtime {
		airtime[k] = 0.1 + 0.4*ra.Float64()
	}
	return sc.GroundTruth(airtime)
}

// analyticWire renders the exact access distributions a topology
// induces, as a perfect measurement phase would report them.
func analyticWire(t *blueprint.Topology) serve.MeasurementsWire {
	mw := serve.MeasurementsWire{N: t.N, P: make([]float64, t.N)}
	for i := 0; i < t.N; i++ {
		mw.P[i] = t.AccessProb(i)
		for j := i + 1; j < t.N; j++ {
			mw.Pairs = append(mw.Pairs, serve.PairProb{I: i, J: j, P: t.PairProb(i, j)})
		}
	}
	return mw
}

// inferCase is one inline infer with the truth it is scored against.
type inferCase struct {
	truth *blueprint.Topology
	wire  serve.InferRequest
}

func genInferCase(r *rng.Source, n int) inferCase {
	truth := scenarioTopo(r, n)
	return inferCase{truth: truth, wire: serve.InferRequest{
		Measurements: analyticWire(truth),
		Options:      serve.InferOptionsWire{Seed: r.Uint64()},
	}}
}

// genInferPool makes count distinct inline infers, N cycling over ns.
// cells, when non-empty, routes request k to cell k mod len(cells).
func genInferPool(r *rng.Source, ns []int, count int, binary bool, cells []string) ([]request, []inferCase) {
	reqs := make([]request, count)
	cases := make([]inferCase, count)
	for k := range reqs {
		c := genInferCase(r.SplitIndex("infer", k), ns[k%len(ns)])
		cases[k] = c
		rq := request{kind: kindInferJSON, path: "/v1/infer", id: k, n: c.truth.N}
		var err error
		if binary {
			rq.kind = kindInferBinary
			rq.body, err = serve.EncodeInferRequest(&c.wire)
		} else {
			rq.body, err = json.Marshal(&c.wire)
		}
		if err != nil {
			panic(err)
		}
		if len(cells) > 0 {
			rq.cell = cells[k%len(cells)]
		}
		reqs[k] = rq
	}
	return reqs, cases
}

// genObservations samples count subframes of a measurement phase on
// truth: each hidden terminal is on air independently with its q, the
// eNB grants k random clients, and a granted client accesses unless an
// active terminal blocks it.
func genObservations(r *rng.Source, truth *blueprint.Topology, count, k int) []serve.ObservationWire {
	if k > truth.N {
		k = truth.N
	}
	out := make([]serve.ObservationWire, count)
	for o := range out {
		var blocked blueprint.ClientSet
		for _, ht := range truth.HTs {
			if r.Bool(ht.Q) {
				blocked = blocked.Union(ht.Clients)
			}
		}
		sched := r.Perm(truth.N)[:k]
		sort.Ints(sched)
		ob := serve.ObservationWire{Scheduled: sched}
		for _, c := range sched {
			if !blocked.Has(c) {
				ob.Accessed = append(ob.Accessed, c)
			}
		}
		out[o] = ob
	}
	return out
}

// stream is one session's observe traffic: distinct batches the client
// cycles through, sealing an epoch on every fourth.
type stream struct {
	session string
	cell    string
	n       int
	truth   *blueprint.Topology
	batches []request
	wire    []serve.ObserveRequest // decoded form, for the local mirror
	infer   []request              // the session infer (refresh workload), length 1
}

func genStream(r *rng.Source, idx int, session, cell string, n, batches, perBatch int) stream {
	st := stream{session: session, cell: cell, n: n}
	// Redraw until the deployment has two hidden terminals. With none the
	// measurements are constant, the digest never moves and every refresh
	// is a cache hit; with one the warm chain converges at a tenth of the
	// usual cost, and how many such cells a seed happened to draw decided
	// ±10 % of the refresh workload's throughput.
	for try := 0; try < 64 && (st.truth == nil || len(st.truth.HTs) < 2); try++ {
		st.truth = scenarioTopo(r.SplitIndex("deployment", try), n)
	}
	ro := r.Split("observe")
	for b := 0; b < batches; b++ {
		req := serve.ObserveRequest{
			Session:      session,
			N:            n,
			Observations: genObservations(ro, st.truth, perBatch, n/2),
			Seal:         b%4 == 3,
		}
		body, err := serve.EncodeObserveRequest(&req)
		if err != nil {
			panic(err)
		}
		st.wire = append(st.wire, req)
		st.batches = append(st.batches, request{
			kind: kindObserve, path: "/v1/observe", cell: cell, body: body,
			id: b, strm: idx, n: n, nobs: perBatch, seal: req.Seal,
		})
	}
	body, err := json.Marshal(serve.InferRequest{
		Session: session,
		Options: serve.InferOptionsWire{Seed: r.Split("infer-seed").Uint64()},
	})
	if err != nil {
		panic(err)
	}
	st.infer = []request{{kind: kindInferSession, path: "/v1/infer", cell: cell, body: body, strm: idx, n: n}}
	return st
}

// schedCase is one /v1/schedule body with the decoded request the
// in-process reference scheduler runs on.
type schedCase struct {
	topo *blueprint.Topology
	wire serve.ScheduleRequest
}

const (
	schedNumRB  = 50
	schedM      = 4
	maxSchedHTs = 6
)

// genSchedulePool makes bodies that share a few cell blueprints but
// each carry their own per-RB rates and PF averages: an eNB scheduling
// every subframe against a blueprint that changes only at refresh.
func genSchedulePool(r *rng.Source, blueprints, count int) ([]request, []schedCase) {
	topos := make([]*blueprint.Topology, blueprints)
	for b := range topos {
		// Redraw the rare blueprint with more than maxSchedHTs terminals:
		// the joint calculator's cost is exponential in their overlap, one
		// 9-terminal N = 24 blueprint takes 32 ms a subframe against the
		// usual 3, and whether a seed drew one decided ±12 % of ops_per_s.
		rb := r.SplitIndex("blueprint", b)
		for try := 0; try < 64 && (topos[b] == nil || len(topos[b].HTs) > maxSchedHTs); try++ {
			topos[b] = scenarioTopo(rb.SplitIndex("deployment", try), sizes[b%len(sizes)])
		}
	}
	reqs := make([]request, count)
	cases := make([]schedCase, count)
	for k := range reqs {
		topo := topos[k%blueprints]
		rk := r.SplitIndex("subframe", k)
		sr := serve.ScheduleRequest{
			Topology:      serve.TopologyToWire(topo),
			NumRB:         schedNumRB,
			M:             schedM,
			Scheduler:     "blu",
			Rates:         make([][]float64, topo.N),
			AvgThroughput: make([]float64, topo.N),
		}
		for ue := range sr.Rates {
			mean := 1000 * (1 + 9*rk.Float64())
			sr.Rates[ue] = make([]float64, schedNumRB)
			for b := range sr.Rates[ue] {
				sr.Rates[ue][b] = math.Round(mean * (0.5 + rk.Float64()))
			}
			sr.AvgThroughput[ue] = math.Round(mean * schedNumRB / float64(topo.N) * (0.5 + rk.Float64()))
		}
		body, err := json.Marshal(&sr)
		if err != nil {
			panic(err)
		}
		cases[k] = schedCase{topo: topo, wire: sr}
		reqs[k] = request{kind: kindSchedule, path: "/v1/schedule", body: body, id: k, n: topo.N}
	}
	return reqs, cases
}

// fleetCells is the size of the routed workloads' fleet. The refresh
// workload's cost follows each cell's own interference, so it takes a
// few dozen cells for a seed's luck to average out.
const fleetCells = 24

// genDirectory is the fleet layout of the routed workloads.
func genDirectory(seed uint64) fleet.Directory {
	dir, err := fleet.DefaultDirectory(fleetCells, seed)
	if err != nil {
		panic(fmt.Sprintf("bench: directory for seed %d: %v", seed, err))
	}
	return dir
}

// digestRequests folds every generated byte into one FNV-1a digest, so
// a test can pin that equal seeds give equal inputs.
func digestRequests(groups ...[]request) uint64 {
	h := fnv.New64a()
	for _, g := range groups {
		for i := range g {
			h.Write([]byte(g[i].path))
			h.Write([]byte(g[i].cell))
			h.Write(g[i].body)
		}
	}
	return h.Sum64()
}

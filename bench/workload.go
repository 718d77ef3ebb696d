package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"blu/internal/access"
	"blu/internal/blueprint"
	"blu/internal/fleet"
	"blu/internal/joint"
	"blu/internal/rng"
	"blu/internal/sched"
	"blu/internal/serve"
)

// spec names one workload and sizes its verification pass. A workload
// exists because it isolates layers the others leave idle; why says
// which.
type spec struct {
	name        string
	why         string
	verify      int // verification-pass requests (0 = the whole first pool)
	verifyShort int
	make        func() workload
}

var specs = []spec{
	{"infer-cold", "4096 distinct binary infers (N 16/20/24) sent in order: the LRU never hits, so the cold solver does the work and cache, relay and WAL do none",
		384, 32, func() workload { return &inferCold{} }},
	{"infer-hot-routed", "192 pre-solved JSON infers through the router: relay, JSON decode, digest and cache lookup do the work and the solver never runs",
		0, 0, func() workload { return &inferHot{} }},
	{"refresh-routed", "three observes then a session infer per cell, through the router to durable shards: the refresh loop with WAL, window, relay and warm solver",
		512, 32, func() workload { return &refresh{} }},
	{"observe-ingest", "write-only 256-observation binary batches into 32 durable sessions: window folds and WAL appends with no reads",
		128, 32, func() workload { return &ingest{} }},
	{"schedule-subframe", "per-subframe JSON schedule bodies over 64 repeating blueprints: the joint calculator and speculative scheduler are built per request",
		64, 32, func() workload { return &schedule{} }},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// workload is one seeded traffic mix against one deployment shape.
type workload interface {
	// generate builds every request from r; nothing else is random.
	generate(r *rng.Source, short bool)
	// start launches the system under test on loopback listeners.
	start(stateDir string) (*sut, error)
	// pools returns every generated request (URL binding, digest).
	pools() [][]request
	// iterators returns one request source per client; their state
	// carries from the verification pass into the timed window.
	iterators(clients int) []iterator
	// arm corrupts one expected answer (self-test of the checks).
	arm()
}

// sut is the running system under test.
type sut struct {
	srv      *serve.Server
	fl       *fleet.Local
	base     string
	stateDir string
	stopped  bool
}

func startDirect(cfg serve.Config) (*sut, error) {
	srv, _, err := serve.NewDurable(cfg)
	if err != nil {
		return nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	return &sut{srv: srv, base: "http://" + addr, stateDir: cfg.StateDir}, nil
}

func startFleet(dir fleet.Directory, stateDir string) (*sut, error) {
	fl, err := fleet.StartLocal(fleet.LocalConfig{Shards: 3, Directory: dir, StateDir: stateDir})
	if err != nil {
		return nil, err
	}
	return &sut{fl: fl, base: fl.RouterAddr, stateDir: stateDir}, nil
}

// ownerURL is the base URL of the shard that owns cell.
func (s *sut) ownerURL(cell string) string {
	for _, sh := range s.fl.Shards {
		if sh.Owns(cell) {
			return s.fl.ShardAddrs[sh.Name()]
		}
	}
	return ""
}

// bind fills each request's URL now that the listeners are up.
func (s *sut) bind(pools [][]request) {
	for _, p := range pools {
		for i := range p {
			rq := &p[i]
			rq.url = s.base + rq.path
			if rq.cell != "" {
				rq.url += "?cell=" + rq.cell
				rq.directURL = s.ownerURL(rq.cell) + rq.path
			}
		}
	}
}

func (s *sut) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var err error
	if s.fl != nil {
		err = s.fl.Drain(ctx)
	} else {
		err = s.srv.Drain(ctx)
	}
	if s.stateDir != "" {
		os.RemoveAll(s.stateDir)
	}
	return err
}

// pinTable remembers a hash of the first accepted answer per request
// slot: the server is deterministic, so a later answer to the same
// bytes must be the same bytes.
type pinTable []atomic.Uint64

func (p pinTable) match(id int, body []byte) (same, fresh bool) {
	v := uint64(14695981039346656037) // FNV-1a, inline: this runs per request
	for _, b := range body {
		v = (v ^ uint64(b)) * 1099511628211
	}
	v |= 1 // 0 marks an empty slot
	if p[id].CompareAndSwap(0, v) {
		return true, true
	}
	return p[id].Load() == v, false
}

// cycle walks a pool with a stride: client c of C sends c, c+C, ...
type cycle struct {
	reqs  []request
	i     int
	step  int
	judge func(rq *request, rs *response, deep bool) verdict
}

func (c *cycle) next() *request {
	rq := &c.reqs[c.i%len(c.reqs)]
	c.i += c.step
	return rq
}

func (c *cycle) check(rq *request, rs *response, deep bool) verdict {
	return c.judge(rq, rs, deep)
}

func cycles(reqs []request, clients int, judge func(*request, *response, bool) verdict) []iterator {
	its := make([]iterator, clients)
	for c := range its {
		its[c] = &cycle{reqs: reqs, i: c, step: clients, judge: judge}
	}
	return its
}

// referenceInfer answers an inline infer in-process the way the server
// must: same validation, same options, solver parallelism 1.
func referenceInfer(wire *serve.InferRequest, binary bool) ([]byte, *blueprint.Topology, error) {
	m, err := wire.Measurements.ToMeasurements()
	if err != nil {
		return nil, nil, err
	}
	opts := wire.Options.ToInferOptions()
	opts.Parallelism = 1
	res, err := blueprint.InferContext(context.Background(), m, opts)
	if err != nil {
		return nil, nil, err
	}
	resp := inferResponse(res)
	var body []byte
	if binary {
		body, err = serve.EncodeInferResponse(&resp)
	} else {
		body, err = json.Marshal(resp)
	}
	return body, res.Topology, err
}

func inferResponse(res *blueprint.InferResult) serve.InferResponse {
	return serve.InferResponse{
		Topology:     serve.TopologyToWire(res.Topology),
		Violation:    res.Violation,
		MaxViolation: res.MaxViolation,
		Converged:    res.Converged,
		Starts:       res.Starts,
		Iterations:   res.Iterations,
	}
}

// scoreTopology scores an inferred blueprint by the paper's §4.2.2
// accuracy: the share of true hidden terminals recovered with their
// exact edge set. strict is that criterion taken to its limit — every
// terminal recovered and no spurious one beside them.
func scoreTopology(ok bool, truth, got *blueprint.Topology) verdict {
	acc := blueprint.Accuracy(truth, got)
	return verdict{ok: ok, scored: true, score: acc, strict: acc == 1 && len(got.HTs) == len(truth.HTs)}
}

// scoreMatch scores an answer that either equals its reference or not.
func scoreMatch(ok, same bool) verdict {
	v := verdict{ok: ok, scored: true, strict: same}
	if same {
		v.score = 1
	}
	return v
}

// corrupter flips the expected answer of the first deep check once, so
// a test can prove a mismatch turns into a non-zero exit.
type corrupter struct{ armed bool }

func (c *corrupter) arm() { c.armed = true }

func (c *corrupter) fire() bool {
	if c.armed {
		c.armed = false
		return true
	}
	return false
}

// ---- infer-cold ----

type inferCold struct {
	corrupter
	reqs  []request
	cases []inferCase
	pins  pinTable
}

// coldSizes leaves N = 8 out. Client-observed solve times spread over
// two decades, and with 8/16/24 the median falls in the thin stretch
// between the N = 8 and N = 16 solves, where ±3 % in rank moves it by a
// third: the same code then disagrees with itself by 5–10 %. From 16 up
// the median sits inside the N = 20 solves.
var coldSizes = []int{16, 20, 24}

func (w *inferCold) generate(r *rng.Source, short bool) {
	w.reqs, w.cases = genInferPool(r, coldSizes, 4096, true, nil)
	w.pins = make(pinTable, len(w.reqs))
}

func (w *inferCold) start(string) (*sut, error) { return startDirect(serve.Config{}) }
func (w *inferCold) pools() [][]request         { return [][]request{w.reqs} }

func (w *inferCold) iterators(clients int) []iterator { return cycles(w.reqs, clients, w.judge) }

func (w *inferCold) judge(rq *request, rs *response, deep bool) verdict {
	if rs.status != 200 || rs.hit {
		return verdict{}
	}
	resp, err := serve.DecodeInferResponse(rs.body)
	if err != nil || resp.Topology.N != rq.n {
		return verdict{}
	}
	if same, _ := w.pins.match(rq.id, rs.body); !same {
		return verdict{}
	}
	if !deep {
		return verdict{ok: true}
	}
	c := &w.cases[rq.id]
	want, topo, err := referenceInfer(&c.wire, true)
	if err != nil {
		return verdict{}
	}
	if w.fire() {
		want[len(want)-1] ^= 1
	}
	return scoreTopology(bytes.Equal(want, rs.body), c.truth, topo)
}

// ---- infer-hot-routed ----

type inferHot struct {
	corrupter
	dir      fleet.Directory
	reqs     []request
	cases    []inferCase
	expected [][]byte
}

func (w *inferHot) generate(r *rng.Source, short bool) {
	w.dir = genDirectory(r.Split("directory").Uint64())
	count := 192
	if short {
		count = 32
	}
	w.reqs, w.cases = genInferPool(r, sizes, count, false, w.dir.CellIDs())
	w.expected = make([][]byte, count)
}

func (w *inferHot) start(string) (*sut, error) { return startFleet(w.dir, "") }
func (w *inferHot) pools() [][]request         { return [][]request{w.reqs} }

func (w *inferHot) iterators(clients int) []iterator { return cycles(w.reqs, clients, w.judge) }

// judge: the verification pass solves every body once (miss) and keeps
// the answer; afterwards every answer must be a byte-identical hit.
func (w *inferHot) judge(rq *request, rs *response, deep bool) verdict {
	if rs.status != 200 {
		return verdict{}
	}
	if !deep {
		return verdict{ok: rs.hit && bytes.Equal(w.expected[rq.id], rs.body)}
	}
	c := &w.cases[rq.id]
	want, topo, err := referenceInfer(&c.wire, false)
	if err != nil || rs.hit {
		return verdict{}
	}
	w.expected[rq.id] = append([]byte(nil), rs.body...)
	if w.fire() {
		want[len(want)-2] ^= 1
	}
	return scoreTopology(bytes.Equal(want, rs.body), c.truth, topo)
}

// ---- stateful streams (refresh-routed, observe-ingest) ----

// cursor is the client-side expectation of one session: which batch is
// next, which epoch the next ack must carry, and the last acked digest.
type cursor struct {
	st         *stream
	next       int
	epoch      int
	lastDigest string
	digests    []string       // every acked digest, when history is kept
	mirror     *access.Window // local estimator fed the same batches (deep checks)
}

// streamIter round-robins one client's own sessions: a batch per
// session or, when withInfer is set, observesPerInfer batches followed
// by that session's infer.
type streamIter struct {
	cur       []*cursor
	byStream  []*cursor // indexed by request.strm; nil for other clients' streams
	pos       int
	withInfer bool
	observed  int // batches sent to the current session since its last infer
	keepHist  bool
	corrupt   *corrupter
}

// observesPerInfer makes three requests in four observes, so the
// median latency lies well inside the observes and the 95th percentile
// well inside the infers; at one to one both would sit on the boundary
// between the two and swing with the mix.
const observesPerInfer = 3

func (it *streamIter) next() *request {
	cu := it.cur[it.pos]
	if it.observed == observesPerInfer {
		it.observed = 0
		it.pos = (it.pos + 1) % len(it.cur)
		return &cu.st.infer[0]
	}
	rq := &cu.st.batches[cu.next%len(cu.st.batches)]
	cu.next++
	if it.withInfer {
		it.observed++
	} else {
		it.pos = (it.pos + 1) % len(it.cur)
	}
	return rq
}

func (it *streamIter) check(rq *request, rs *response, deep bool) verdict {
	if rs.status != 200 {
		return verdict{}
	}
	cu := it.byStream[rq.strm]
	if rq.kind == kindInferSession {
		var resp serve.InferResponse
		if err := json.Unmarshal(rs.body, &resp); err != nil || resp.Topology.N != rq.n {
			return verdict{}
		}
		if !deep {
			return verdict{ok: true}
		}
		topo, err := resp.Topology.ToTopology()
		if err != nil {
			return verdict{}
		}
		v := scoreTopology(true, cu.st.truth, topo)
		v.strict = resp.Converged
		return v
	}
	ack, err := serve.DecodeObserveResponse(rs.body)
	if err != nil {
		return verdict{}
	}
	wantEpoch := cu.epoch
	if rq.seal {
		wantEpoch++
	}
	wantFolded := rq.nobs
	if deep && it.corrupt.fire() {
		wantFolded++
	}
	ok := ack.Session == cu.st.session && ack.Folded == wantFolded && ack.Epoch == wantEpoch
	cu.epoch = ack.Epoch
	cu.lastDigest = ack.Digest
	if it.keepHist {
		cu.digests = append(cu.digests, ack.Digest)
	}
	if !deep || it.withInfer {
		return verdict{ok: ok}
	}
	// Feed the mirror the decoded batch and compare what it saw.
	if cu.mirror == nil {
		cu.mirror = access.NewWindow(cu.st.n, 0)
	}
	folded := foldBatch(cu.mirror, &cu.st.wire[rq.id])
	return scoreMatch(ok, ack.Folded == folded && ack.Epoch == cu.mirror.Epoch())
}

// foldBatch applies one decoded observe batch to win as the handler
// does and returns how many observations carried evidence.
func foldBatch(win *access.Window, req *serve.ObserveRequest) (folded int) {
	for i := range req.Observations {
		ob := &req.Observations[i]
		if win.Fold(ob.Scheduled, blueprint.NewClientSet(ob.Accessed...)) > 0 {
			folded++
		}
	}
	if req.Seal {
		win.Advance()
	}
	return folded
}

func streamIters(streams []stream, clients int, withInfer bool, corrupt *corrupter) []iterator {
	its := make([]iterator, clients)
	for c := range its {
		it := &streamIter{withInfer: withInfer, corrupt: corrupt, byStream: make([]*cursor, len(streams))}
		for i := range streams {
			if i%clients == c {
				it.byStream[i] = &cursor{st: &streams[i]}
				it.cur = append(it.cur, it.byStream[i])
			}
		}
		its[c] = it
	}
	return its
}

func streamPools(streams []stream) [][]request {
	var out [][]request
	for i := range streams {
		out = append(out, streams[i].batches, streams[i].infer)
	}
	return out
}

type refresh struct {
	corrupter
	dir     fleet.Directory
	streams []stream
}

func (w *refresh) generate(r *rng.Source, short bool) {
	w.dir = genDirectory(r.Split("directory").Uint64())
	for i := range w.dir.Cells {
		cell := &w.dir.Cells[i]
		w.streams = append(w.streams, genStream(r.SplitIndex("cell", i), i,
			fleet.SessionName(cell.ID), cell.ID, len(cell.Members), 64, 64))
	}
}

func (w *refresh) start(stateDir string) (*sut, error) { return startFleet(w.dir, stateDir) }
func (w *refresh) pools() [][]request                  { return streamPools(w.streams) }
func (w *refresh) iterators(clients int) []iterator {
	return streamIters(w.streams, clients, true, &w.corrupter)
}

type ingest struct {
	corrupter
	streams []stream
	its     []iterator
}

func (w *ingest) generate(r *rng.Source, short bool) {
	for i := 0; i < 32; i++ {
		w.streams = append(w.streams, genStream(r.SplitIndex("session", i), i,
			fmt.Sprintf("ingest-%02d", i), "", 16, 32, 256))
	}
}

func (w *ingest) start(stateDir string) (*sut, error) {
	return startDirect(serve.Config{StateDir: stateDir})
}
func (w *ingest) pools() [][]request { return streamPools(w.streams) }
func (w *ingest) iterators(clients int) []iterator {
	w.its = streamIters(w.streams, clients, false, &w.corrupter)
	return w.its
}

// recheck is the durability check: drain, reopen the state directory,
// and require every session back at exactly its last acked epoch and
// digest. It returns how long the reopen took.
func (w *ingest) recheck(s *sut) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		return 0, fmt.Errorf("drain: %w", err)
	}
	t0 := time.Now()
	srv, _, err := serve.NewDurable(serve.Config{StateDir: s.stateDir})
	took := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	s.srv = srv // stop() drains the reopened server
	for _, it := range w.its {
		for _, cu := range it.(*streamIter).cur {
			if cu.next == 0 {
				continue
			}
			_, dg, epoch, ok := srv.SessionBlueprint(cu.st.session)
			if !ok || epoch != cu.epoch || fmt.Sprintf("%016x", dg) != cu.lastDigest {
				return took, fmt.Errorf("session %s came back ok=%v epoch=%d digest=%016x, acked epoch=%d digest=%s",
					cu.st.session, ok, epoch, dg, cu.epoch, cu.lastDigest)
			}
		}
	}
	return took, nil
}

// ---- schedule-subframe ----

type schedule struct {
	corrupter
	reqs  []request
	cases []schedCase
	pins  pinTable
}

func (w *schedule) generate(r *rng.Source, short bool) {
	w.reqs, w.cases = genSchedulePool(r, 64, 256)
	w.pins = make(pinTable, len(w.reqs))
}

func (w *schedule) start(string) (*sut, error) { return startDirect(serve.Config{}) }
func (w *schedule) pools() [][]request         { return [][]request{w.reqs} }

func (w *schedule) iterators(clients int) []iterator { return cycles(w.reqs, clients, w.judge) }

// overCap is ⌈f·M⌉ with the scheduler's default over-scheduling f = 2.
const overCap = 2 * schedM

func (w *schedule) judge(rq *request, rs *response, deep bool) verdict {
	if rs.status != 200 {
		return verdict{}
	}
	same, fresh := w.pins.match(rq.id, rs.body)
	if !same {
		return verdict{}
	}
	if !fresh && !deep {
		return verdict{ok: true}
	}
	var resp serve.ScheduleResponse
	if err := json.Unmarshal(rs.body, &resp); err != nil || !wellFormed(&resp, rq.n) {
		return verdict{}
	}
	if !deep {
		return verdict{ok: true}
	}
	want, err := referenceSchedule(&w.cases[rq.id].wire)
	if err != nil {
		return verdict{}
	}
	if w.fire() {
		want[0] = append(want[0], 0)
	}
	good := len(want) == len(resp.RB)
	for b := 0; good && b < len(want); b++ {
		good = len(want[b]) == len(resp.RB[b])
		for k := 0; good && k < len(want[b]); k++ {
			good = want[b][k] == resp.RB[b][k]
		}
	}
	return scoreMatch(good, good)
}

// wellFormed: 50 RBs, each holding at most ⌈f·M⌉ distinct in-range UEs.
func wellFormed(resp *serve.ScheduleResponse, n int) bool {
	if resp.Scheduler != "blu" || len(resp.RB) != schedNumRB {
		return false
	}
	for _, ues := range resp.RB {
		if len(ues) > overCap {
			return false
		}
		var seen blueprint.ClientSet
		for _, u := range ues {
			if u < 0 || u >= n || seen.Has(u) {
				return false
			}
			seen = seen.Add(u)
		}
	}
	return true
}

// scheduleEnv is the sched.Env the server derives from a request.
func scheduleEnv(wire *serve.ScheduleRequest) sched.Env {
	return sched.Env{
		NumUE: wire.Topology.N,
		NumRB: wire.NumRB,
		M:     wire.M,
		Rate:  func(ue, b int) float64 { return wire.Rates[ue][b] },
	}
}

// referenceSchedule runs the speculative scheduler in-process exactly
// as the handler does: fresh calculator, warm-started PF averages, one
// subframe.
func referenceSchedule(wire *serve.ScheduleRequest) ([][]int, error) {
	topo, err := wire.Topology.ToTopology()
	if err != nil {
		return nil, err
	}
	sp, err := sched.NewSpeculative(scheduleEnv(wire), joint.NewCalculator(topo))
	if err != nil {
		return nil, err
	}
	sp.WarmStart(wire.AvgThroughput)
	return sp.Schedule(0).RB, nil
}

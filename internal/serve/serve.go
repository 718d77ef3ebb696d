// Package serve exposes the BLU controller as an online HTTP/JSON
// service — the deployment shape of the paper's §3.7 refresh loop
// (measurements in, blueprint and speculative schedule out) scaled to
// request streams:
//
//	POST /v1/infer     measurements → inferred interference blueprint
//	POST /v1/observe   per-subframe access outcomes → session estimator
//	POST /v1/joint     topology + clear/blocked sets → joint access prob
//	POST /v1/schedule  topology + rates/backlog → one subframe of grants
//	GET  /healthz      liveness (+ drain state)
//	GET  /metrics      JSON snapshot of the internal/obs registry
//
// The serving core has the shapes that transfer to any inference stack
// (DESIGN.md §12):
//
//   - Coalescing: identical in-flight infer requests — keyed by a
//     canonical digest of the clamped measurements and solver options —
//     share one solver run, singleflight-style.
//   - Caching: a bounded LRU over the same digest returns finished
//     responses byte-identically without touching the solver.
//   - Backpressure: compute work goes through a bounded queue; when it
//     is full the server answers 429 + Retry-After instead of queueing
//     unboundedly. Queue slots are released to workers running on the
//     internal/parallel pool.
//   - Streaming: /v1/observe folds raw access outcomes into a bounded
//     per-session windowed estimator; an infer may then reference the
//     session instead of carrying measurements inline, and is seeded
//     with the session's previous blueprint (warm start). Cache entries
//     minted from a session are invalidated exactly when the session's
//     measurement digest moves (DESIGN.md §14).
//   - Joint tables: /v1/schedule and /v1/joint draw the blueprint's
//     calculator memo and group distributions from a byte-bounded
//     per-topology cache, so a cell scheduling every subframe against
//     one blueprint computes them once (tables.go).
//   - Deadlines: a per-request timeout_ms maps onto the existing
//     blueprint.InferContext plumbing; expiry answers 504.
//   - Graceful drain: Drain stops intake, finishes every in-flight
//     request, and stops the workers.
//
// The package is stdlib-only (plus the repo's internal packages), like
// everything else in the tree.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"blu/internal/blueprint"
	"blu/internal/lte"
	"blu/internal/obs"
	"blu/internal/parallel"
	"blu/internal/persist"
	"blu/internal/sched"
)

var (
	obsRequests  = obs.GetCounter("serve_requests_total")
	obsInfers    = obs.GetCounter("serve_infer_total")
	obsJoints    = obs.GetCounter("serve_joint_total")
	obsSchedules = obs.GetCounter("serve_schedule_total")
	obsRejected  = obs.GetCounter("serve_queue_reject_total")
	obsTimeouts  = obs.GetCounter("serve_timeout_total")
	obsBadReq    = obs.GetCounter("serve_bad_request_total")
	obsBinary    = obs.GetCounter("serve_binary_total")
	obsObserves  = obs.GetCounter("serve_observe_total")
	// obsInvalidation counts cache entries removed because the session
	// that minted them saw its measurement digest move (or died) — the
	// digest-delta invalidations, as opposed to capacity evictions.
	obsInvalidation = obs.GetCounter("serve_invalidation_total")
	obsDrains       = obs.GetCounter("serve_drains_total")
	obsQueueLen     = obs.GetGauge("serve_queue_depth")
	obsLatency      = obs.GetHistogram("serve_latency_ms",
		[]float64{0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500})
)

// Config tunes the server. The zero value selects the defaults. The
// bounds no deployment tunes are the constants below.
type Config struct {
	// Workers bounds the compute pool (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the work queue; submissions beyond it get 429
	// (default 64).
	QueueDepth int
	// StateDir, when set, selects durable session state: observe
	// batches are WAL-logged under it and sessions are snapshotted
	// periodically and on drain (DESIGN.md §15).
	StateDir string
	// SnapshotInterval is the periodic snapshot cadence when StateDir
	// is set (default 30s).
	SnapshotInterval time.Duration
	// WALSyncInterval is the WAL group-commit window: how long an
	// acknowledged observe batch may stay memory-only (default 25ms).
	WALSyncInterval time.Duration
}

// Fixed serving bounds.
const (
	// solverParallelism is blueprint.InferOptions.Parallelism for every
	// solver run: the service takes its throughput from concurrent
	// requests, not per-request fan-out (results are byte-identical
	// either way).
	solverParallelism = 1
	// cacheEntries bounds the infer result cache.
	cacheEntries = 1024
	// maxSessions bounds the live /v1/observe session registry; creating
	// a session past it evicts the least-recently-used one.
	maxSessions = 256
	// windowEpochs is a new session's windowed-estimator capacity, in
	// sealed epochs.
	windowEpochs = 64
	// defaultTimeout applies when a request carries no timeout_ms, and
	// maxTimeout caps client-supplied deadlines.
	defaultTimeout = 30 * time.Second
	maxTimeout     = 2 * time.Minute
)

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	return c
}

// job is one queued unit of compute work. fn runs on a pool worker
// under the request context; done is closed when the job has run (ran
// set) or been skipped because its context died while queued.
type job struct {
	ctx  context.Context
	fn   func(ctx context.Context)
	done chan struct{}
	ran  bool
}

func (j *job) run() {
	defer close(j.done)
	// A job whose request already timed out while queued is dead weight:
	// skip the solve, the waiting handler (if any) answers 504.
	if j.ctx.Err() != nil {
		return
	}
	j.fn(j.ctx)
	j.ran = true
}

// Server is the BLU serving daemon core. Construct with NewDurable, expose
// Handler over any http.Server (or use Listen), and always call Drain
// to stop the worker pool.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	cache    *lruCache
	flights  *flightGroup
	sessions *sessionStore
	tables   *tablesCache

	queue    chan *job
	poolDone chan struct{}

	// drainMu guards the draining flag against in-flight submissions:
	// submit holds it shared while enqueueing, Drain exclusively while
	// flipping the flag, so after Drain observes the flag set no new job
	// can enter the queue and jobs.Wait covers everything submitted.
	// closing flips first thing in Drain — before the listener stops —
	// so /healthz answers 503 "draining" and balancers stop routing
	// while in-flight requests still complete.
	drainMu  sync.RWMutex
	draining bool
	closing  bool
	jobs     sync.WaitGroup

	// Durable state (NewDurable with Config.StateDir): the persist
	// store, the snapshot loop's lifecycle, and stateMu — held shared
	// around every WAL-append+fold, exclusively while a snapshot cuts
	// the WAL and collects the session image.
	store    *persist.Store
	stateMu  sync.RWMutex
	snapStop chan struct{}
	snapDone chan struct{}

	// httpSrv/listener are set by Listen; Drain shuts them down first.
	httpSrv  *http.Server
	listener net.Listener
	serveErr chan error
}

// newServer builds a memory-only Server and starts its worker pool;
// NewDurable wraps it with the durability layer. Callers must
// eventually call Drain so the pool exits.
func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		cache:    newLRUCache(cacheEntries),
		flights:  newFlightGroup(),
		sessions: newSessionStore(maxSessions, windowEpochs),
		tables:   newTablesCache(jointTablesMaxBytes),
		queue:    make(chan *job, cfg.QueueDepth),
		poolDone: make(chan struct{}),
		serveErr: make(chan error, 1),
	}
	s.mux.HandleFunc("/v1/infer", s.instrument(obsInfers, s.handleInfer))
	s.mux.HandleFunc("/v1/observe", s.instrument(obsObserves, s.handleObserve))
	s.mux.HandleFunc("/v1/joint", s.instrument(obsJoints, s.handleJoint))
	s.mux.HandleFunc("/v1/schedule", s.instrument(obsSchedules, s.handleSchedule))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)

	// The pool: Workers long-lived drain loops over the shared queue,
	// fanned out on the repo's one worker-pool primitive.
	workers := parallel.Workers(cfg.Workers)
	go func() {
		defer close(s.poolDone)
		_ = parallel.ForEach(context.Background(), workers, workers, func(int) error {
			for j := range s.queue {
				j.run()
				s.jobs.Done()
				obsQueueLen.Set(float64(len(s.queue)))
			}
			return nil
		})
	}()
	return s
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Listen binds addr (":0" picks a free port), serves Handler on it in
// the background, and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.listener = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	go func() {
		err := s.httpSrv.Serve(ln)
		if !errors.Is(err, http.ErrServerClosed) {
			s.serveErr <- err
		}
	}()
	return ln.Addr().String(), nil
}

// Drain gracefully stops the server: flip /healthz to 503 "draining"
// (balancers stop routing), stop accepting requests (when Listen was
// used, http.Server.Shutdown waits for every in-flight handler), run
// every already-queued job to completion, stop the worker pool, and
// serialize a final state snapshot (durable servers). No accepted
// request is dropped and every fold accepted before the listener
// closed is in the final image. Drain is idempotent only in effect,
// not in metrics; call it once.
func (s *Server) Drain(ctx context.Context) error {
	obsDrains.Inc()
	s.drainMu.Lock()
	s.closing = true
	s.drainMu.Unlock()
	var shutdownErr error
	if s.httpSrv != nil {
		// Stops the listener and blocks until in-flight handlers return —
		// and a handler only returns after its job finished, so every
		// accepted compute request completes before intake is declared
		// closed.
		shutdownErr = s.httpSrv.Shutdown(ctx)
	}
	s.drainMu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if !alreadyDraining {
		s.jobs.Wait() // every submitted job has run
		close(s.queue)
	}
	select {
	case <-s.poolDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-s.serveErr:
		if shutdownErr == nil {
			shutdownErr = err
		}
	default:
	}
	if s.store != nil {
		// Every handler has returned and the pool is stopped, so no fold
		// is in flight: the final image captures everything accepted.
		close(s.snapStop)
		<-s.snapDone
		if err := s.SnapshotNow(); err != nil && shutdownErr == nil {
			shutdownErr = err
		}
		if err := s.store.Close(); err != nil && shutdownErr == nil {
			shutdownErr = err
		}
	}
	return shutdownErr
}

// errQueueFull is submit's backpressure signal, mapped to 429.
var errQueueFull = errors.New("serve: work queue full")

// errDraining rejects submissions after Drain started (only reachable
// when Handler is mounted on an externally-owned http.Server), mapped
// to 503.
var errDraining = errors.New("serve: draining")

// requestContext derives the per-request deadline: timeout_ms when
// given (capped at maxTimeout), defaultTimeout otherwise.
func requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := defaultTimeout
	if timeoutMS > 0 {
		d = min(time.Duration(timeoutMS)*time.Millisecond, maxTimeout)
	}
	return context.WithTimeout(r.Context(), d)
}

// compute is every compute handler's one path to the worker pool: it
// runs fn on a pool worker under the request deadline and returns 200
// once fn has run. Otherwise it returns the failure to answer with: 429
// on a full queue, 503 while draining, 504 when the deadline passed
// while the job was queued or running. A shed or expired job never runs
// fn, so it touches no session, table, or solver state.
func (s *Server) compute(r *http.Request, timeoutMS int, fn func(context.Context)) (int, string) {
	ctx, cancel := requestContext(r, timeoutMS)
	defer cancel()
	switch err := s.submit(ctx, fn); {
	case err == nil:
		return http.StatusOK, ""
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests, "work queue full, retry later"
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable, "server draining"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "request deadline exceeded"
	default:
		return http.StatusGatewayTimeout, "request aborted: " + err.Error()
	}
}

// submit enqueues fn and waits for it to finish or for ctx to die. It
// returns nil only when fn ran to completion. A full queue fails fast
// with errQueueFull — bounded memory is the contract, not unbounded
// queueing.
func (s *Server) submit(ctx context.Context, fn func(context.Context)) error {
	j := &job{ctx: ctx, fn: fn, done: make(chan struct{})}
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		return errDraining
	}
	// Add must precede the send: a worker may run the job and call Done
	// before this goroutine resumes after the enqueue.
	s.jobs.Add(1)
	select {
	case s.queue <- j:
		s.drainMu.RUnlock()
		obsQueueLen.Set(float64(len(s.queue)))
	default:
		s.jobs.Done()
		s.drainMu.RUnlock()
		return errQueueFull
	}
	select {
	case <-j.done:
		if !j.ran {
			return ctx.Err() // skipped: the context died while queued
		}
		return nil
	case <-ctx.Done():
		// The job stays queued; its run() sees the dead context and
		// skips the solve. The handler answers 504 now.
		return ctx.Err()
	}
}

// instrument wraps a compute handler with the request counter, the
// POST gate, the body-size cap, and the latency histogram.
func (s *Server) instrument(counter *obs.Counter, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		obsRequests.Inc()
		counter.Inc()
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, 8<<20)
		start := time.Now()
		h(w, r)
		obsLatency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
}

// WriteJSON writes v as a JSON response with no error bookkeeping:
// serve's success bodies and the fleet's admin endpoints use it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status, body = http.StatusInternalServerError, errorBody(err.Error())
	}
	writeBody(w, status, contentTypeJSON, body)
}

const contentTypeJSON = "application/json"

func writeBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	w.Write(body)
}

// mediaType extracts the bare media type from a Content-Type or Accept
// header element, dropping parameters and normalizing case.
func mediaType(v string) string {
	if i := strings.IndexByte(v, ';'); i >= 0 {
		v = v[:i]
	}
	return strings.ToLower(strings.TrimSpace(v))
}

// acceptsBinary reports whether any element of the Accept header names
// the binary codec.
func acceptsBinary(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		if mediaType(part) == ContentTypeBinary {
			return true
		}
	}
	return false
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeResult(w, status, contentTypeJSON, errorBody(msg))
}

// writeResult writes a finished response with the bookkeeping its
// status carries: error counters, and Retry-After on a 429. An infer
// answer goes through it whether the request computed it or received
// it through a coalesced flight, so a follower of a shed leader is
// told when to retry and counted like the leader.
func writeResult(w http.ResponseWriter, status int, contentType string, body []byte) {
	switch status {
	case http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusMethodNotAllowed:
		obsBadReq.Inc()
	case http.StatusTooManyRequests:
		obsRejected.Inc()
		// The queue drains at solver speed; a second is a sane first
		// retry horizon for a shed request.
		w.Header().Set("Retry-After", "1")
	case http.StatusGatewayTimeout:
		obsTimeouts.Inc()
	}
	writeBody(w, status, contentType, body)
}

// errorBody renders an ErrorResponse body, for writeError and for
// publishing a failure through a coalesced flight.
func errorBody(msg string) []byte {
	body, _ := json.Marshal(ErrorResponse{Error: msg})
	return body
}

// DecodeJSON parses a JSON request body strictly enough to catch
// malformed payloads (bad JSON, trailing garbage) and fields the schema
// does not have, so a client naming a retired or misspelled option is
// told instead of silently getting the default. The fleet's admin
// endpoints decode through it too.
func DecodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad JSON: %v", err)
	}
	if dec.More() {
		return errors.New("bad JSON: trailing data")
	}
	return nil
}

// decodeBody parses a request body into v: a binary frame through
// decodeBinary when Content-Type names ContentTypeBinary (counted in
// serve_binary_total), JSON otherwise.
func decodeBody[T any](r *http.Request, v *T, decodeBinary func([]byte) (*T, error)) error {
	if mediaType(r.Header.Get("Content-Type")) != ContentTypeBinary {
		return DecodeJSON(r, v)
	}
	obsBinary.Inc()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return fmt.Errorf("read body: %v", err)
	}
	dec, err := decodeBinary(data)
	if err != nil {
		return err
	}
	*v = *dec
	return nil
}

// binaryKeySalt separates the binary-response cache/flight keyspace
// from the JSON one: flights and the cache hold fully-encoded bodies,
// so a request asking for a binary response can never be answered from
// (or coalesced onto) a JSON rendering of the same digest, and vice
// versa. The request codec needs no salt — both decode into the same
// wire structs before digesting.
const binaryKeySalt = 0x9e3779b97f4a7c15

// handleInfer is POST /v1/infer: measurements → inferred blueprint,
// with digest-keyed caching and coalescing in front of the solver.
// Request and response bodies are JSON by default; a Content-Type of
// ContentTypeBinary declares a binary request frame and an Accept
// naming it selects a binary response frame (errors stay JSON).
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	var req InferRequest
	if err := decodeBody(r, &req, DecodeInferRequest); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	opts := req.Options.ToInferOptions()
	opts.Parallelism = solverParallelism
	var m *blueprint.Measurements
	var sess *session
	var sessDigest uint64
	if req.Session != "" {
		if req.Measurements.N != 0 || len(req.Measurements.P) != 0 ||
			len(req.Measurements.Pairs) != 0 || len(req.Measurements.Triples) != 0 {
			writeError(w, http.StatusBadRequest, "session and inline measurements are mutually exclusive")
			return
		}
		sess = s.sessions.get(req.Session)
		if sess == nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", req.Session))
			return
		}
		// Snapshot measurements, digest, and warm seed in one critical
		// section so they agree; Measurements() is a fresh clamped copy, so
		// concurrent folds cannot mutate what the solver reads. The digest
		// is re-checked against the session before the result is minted.
		sess.mu.Lock()
		m = sess.win.Measurements()
		sessDigest = sess.digest
		opts.WarmStart = sess.lastTopo
		sess.mu.Unlock()
	} else {
		var err error
		m, err = req.Measurements.ToMeasurements()
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	key := digestInfer(m, opts)
	binaryResp := acceptsBinary(r)
	if binaryResp {
		obsBinary.Inc()
		key ^= binaryKeySalt
	}
	// Success bodies carry the negotiated codec; every error rendering
	// below is JSON regardless.
	ctFor := func(status int) string {
		if status == http.StatusOK && binaryResp {
			return ContentTypeBinary
		}
		return contentTypeJSON
	}

	if body, ok := s.cache.get(key); ok {
		w.Header().Set("X-Blu-Cache", "hit")
		writeBody(w, http.StatusOK, ctFor(http.StatusOK), body)
		return
	}
	w.Header().Set("X-Blu-Cache", "miss")

	f, leader := s.flights.join(key)
	if !leader {
		// Coalesced: wait for the leader's published result. The salted
		// key guarantees the leader encoded with this request's codec.
		ctx, cancel := requestContext(r, req.TimeoutMS)
		defer cancel()
		select {
		case <-f.done:
			writeResult(w, f.status, ctFor(f.status), f.body)
		case <-ctx.Done():
			writeError(w, http.StatusGatewayTimeout, "request deadline exceeded")
		}
		return
	}

	var res *blueprint.InferResult
	var inferErr error
	var body []byte
	status, msg := s.compute(r, req.TimeoutMS, func(ctx context.Context) {
		res, inferErr = blueprint.InferContext(ctx, m, opts)
	})
	switch {
	case status != http.StatusOK:
		body = errorBody(msg)
	case errors.Is(inferErr, blueprint.ErrAborted):
		status, body = http.StatusGatewayTimeout, errorBody("inference aborted: deadline exceeded")
	case inferErr != nil:
		status, body = http.StatusUnprocessableEntity, errorBody(inferErr.Error())
	default:
		resp := InferResponse{
			Topology:     TopologyToWire(res.Topology),
			Violation:    res.Violation,
			MaxViolation: res.MaxViolation,
			Converged:    res.Converged,
			Starts:       res.Starts,
			Iterations:   res.Iterations,
		}
		var encErr error
		if binaryResp {
			body, encErr = EncodeInferResponse(&resp)
		} else {
			body, encErr = json.Marshal(resp)
		}
		if encErr != nil {
			// Unreachable for solver output (N and client sets are
			// validated), kept as a real branch so a future wire change
			// fails loudly instead of caching a half-written frame.
			status, body = http.StatusInternalServerError, errorBody(encErr.Error())
		} else {
			s.cache.put(key, body)
			if sess != nil {
				s.mintSessionKey(sess, sessDigest, key, res.Topology)
			}
		}
	}
	// Publish to followers before answering, so the flight never
	// outlives its leader.
	s.flights.finish(key, f, status, body)
	writeResult(w, status, ctFor(status), body)
}

// handleJoint is POST /v1/joint: topology + clear/blocked sets →
// P(clear, blocked̄) via the §3.6 recursive-conditioning calculator of
// the blueprint's cached joint tables.
func (s *Server) handleJoint(w http.ResponseWriter, r *http.Request) {
	var req JointRequest
	if err := DecodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	topo, err := req.Topology.ToTopology()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	toSet := func(name string, ids []int) (blueprint.ClientSet, error) {
		var set blueprint.ClientSet
		for _, c := range ids {
			if c < 0 || c >= topo.N {
				return 0, fmt.Errorf("%s client %d out of range for n=%d", name, c, topo.N)
			}
			set = set.Add(c)
		}
		return set, nil
	}
	clear, err := toSet("clear", req.Clear)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	blocked, err := toSet("blocked", req.Blocked)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !clear.Intersect(blocked).Empty() {
		writeError(w, http.StatusBadRequest, "clear and blocked sets overlap")
		return
	}

	var resp JointResponse
	if st, msg := s.compute(r, req.TimeoutMS, func(context.Context) {
		key, tables := s.tables.acquire(topo)
		defer s.tables.release(key, tables)
		calc := tables.Calculator()
		resp.Prob = calc.Prob(clear, blocked)
		resp.Marginals = make([]float64, topo.N)
		for i := range resp.Marginals {
			resp.Marginals[i] = calc.Marginal(i)
		}
	}); st != http.StatusOK {
		writeError(w, st, msg)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleSchedule is POST /v1/schedule: topology + per-UE rates (and
// optional backlog / PF warm start) → one subframe of uplink grants
// from the selected scheduler.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req ScheduleRequest
	if err := DecodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	topo, err := req.Topology.ToTopology()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	n := topo.N
	if len(req.Rates) != n {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("rates cover %d UEs, topology has %d", len(req.Rates), n))
		return
	}
	if req.NumRB < 1 || req.NumRB > 1<<12 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("num_rb=%d out of range", req.NumRB))
		return
	}
	if req.M < 1 || req.M > n {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("m=%d out of range [1,%d]", req.M, n))
		return
	}
	for ue, rr := range req.Rates {
		if len(rr) != 1 && len(rr) != req.NumRB {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("rates[%d] has %d entries, want 1 or num_rb=%d", ue, len(rr), req.NumRB))
			return
		}
	}
	if req.Backlog != nil && len(req.Backlog) != n {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("backlog covers %d UEs, topology has %d", len(req.Backlog), n))
		return
	}
	if req.AvgThroughput != nil && len(req.AvgThroughput) != n {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("avg_throughput covers %d UEs, topology has %d", len(req.AvgThroughput), n))
		return
	}
	flavor := req.Scheduler
	switch flavor {
	case "":
		flavor = "blu"
	case "blu", "aa", "pf":
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown scheduler %q (want blu, aa, or pf)", flavor))
		return
	}

	// Everything heavier than validation — table acquisition, scheduler
	// construction, the subframe itself — runs inside the job, so the
	// queue and the worker count bound it and a shed request costs none
	// of it.
	var schedule *lte.Schedule
	var buildErr error
	if st, msg := s.compute(r, req.TimeoutMS, func(context.Context) {
		schedule, buildErr = s.scheduleSubframe(flavor, topo, &req)
	}); st != http.StatusOK {
		writeError(w, st, msg)
		return
	}
	if buildErr != nil {
		// Unreachable while the validation above covers sched.Env's own.
		writeError(w, http.StatusInternalServerError, buildErr.Error())
		return
	}
	resp := ScheduleResponse{
		RB:          make([][]int, len(schedule.RB)),
		DistinctUEs: schedule.DistinctUEs(),
		Scheduler:   flavor,
	}
	for b, ues := range schedule.RB {
		if ues == nil {
			resp.RB[b] = []int{}
		} else {
			resp.RB[b] = ues
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// scheduleSubframe runs one validated /v1/schedule request on a pool
// worker: a scheduler with fresh PF state, bound for blu and aa to the
// blueprint's cached joint tables, schedules one subframe. The tables
// are checked out for exactly the duration of this call.
func (s *Server) scheduleSubframe(flavor string, topo *blueprint.Topology, req *ScheduleRequest) (*lte.Schedule, error) {
	env := sched.Env{
		NumUE: topo.N,
		NumRB: req.NumRB,
		M:     req.M,
		K:     req.K,
		Alpha: req.Alpha,
		Rate: func(ue, b int) float64 {
			rr := req.Rates[ue]
			if len(rr) == 1 {
				return rr[0]
			}
			return rr[b]
		},
	}
	if req.Backlog != nil {
		env.Backlog = func(ue int) float64 { return req.Backlog[ue] }
	}
	var scheduler interface {
		sched.Scheduler
		WarmStart([]float64)
	}
	var err error
	if flavor == "pf" {
		scheduler, err = sched.NewPF(env)
	} else {
		key, tables := s.tables.acquire(topo)
		defer s.tables.release(key, tables)
		if flavor == "aa" {
			scheduler, err = sched.NewAccessAware(env, tables.Calculator())
		} else {
			var sp *sched.Speculative
			if sp, err = tables.Speculative(env); err == nil && req.OverFactor > 0 {
				sp.OverFactor = req.OverFactor
			}
			scheduler = sp
		}
	}
	if err != nil {
		return nil, err
	}
	if req.AvgThroughput != nil {
		scheduler.WarmStart(req.AvgThroughput)
	}
	return scheduler.Schedule(0), nil
}

// handleHealthz is GET /healthz. A draining server answers 503 with
// status "draining" so balancers take it out of rotation while
// in-flight requests finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.drainMu.RLock()
	draining := s.draining || s.closing
	s.drainMu.RUnlock()
	if draining {
		WriteJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// handleMetrics is GET /metrics: the obs registry snapshot as JSON —
// the same schema manifests embed, so load generators can attach it to
// their bench reports verbatim.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, obs.Snap())
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"blu/internal/access"
	"blu/internal/blueprint"
	"blu/internal/joint"
	"blu/internal/persist"
	"blu/internal/sched"
	"blu/internal/serve"
)

// The traced pass. No span is recorded inside the program yet, so the
// harness attributes a request's time from outside: right after the
// client's reply it re-runs the request's stages through the public
// calls of each layer (decode → prepare → wal → kernel → encode), then
// through the whole handler in-process with no socket. What is left of
// the client's time after that — relay, queueing, transport — is the
// residual a later in-program tracing change must decompose.
//
// Span tree of one sampled request (every span carries the same id):
//
//	sample
//	├── request            client send → reply read ("request.direct" when
//	│                      the router was bypassed)
//	├── replay             envelope of the stage re-runs
//	│   ├── decode         wire bytes → wire struct
//	│   ├── prepare        ToMeasurements / ToTopology / window fold
//	│   ├── wal            canonical payload + Store.Append (durable only)
//	│   ├── kernel         blueprint.InferContext / sched+joint Schedule
//	│   └── encode         result → wire bytes
//	└── handler            Server.Handler().ServeHTTP on a replay server
const (
	spSample = iota
	spRequest
	spRequestDirect
	spReplay
	spDecode
	spPrepare
	spWAL
	spKernel
	spEncode
	spHandler
	numSpans
)

var spanNames = [numSpans]string{"sample", "request", "request.direct", "replay",
	"decode", "prepare", "wal", "kernel", "encode", "handler"}

var spanParents = [numSpans]int{-1, spSample, spSample, spSample,
	spReplay, spReplay, spReplay, spReplay, spReplay, spSample}

// sampleRec is one traced request: when each span started and ended,
// in ns since the pass began; a span that did not run has end == 0.
type sampleRec struct {
	seq    int
	kind   int
	direct bool
	at     [numSpans][2]int64
}

func (s *sampleRec) dur(sp int) int64 { return s.at[sp][1] - s.at[sp][0] }

// replayer re-runs requests against private state: a replay server
// with the target's configuration, per-stream mirror windows and warm
// seeds (each stream belongs to one client, so no locking), and a
// scratch WAL for the wal stage.
type replayer struct {
	*inproc
	epoch    time.Time
	store    *persist.Store
	dirs     []string
	mirrors  []*access.Window
	warm     []*blueprint.Topology
	samples  [][]sampleRec // per client
	failures atomic.Int64
}

// newReplayer builds the replay state for w. Hot pools are solved once
// up front so the replay handler hits exactly where the target does.
func newReplayer(w workload, durableDir string, clients int) (*replayer, error) {
	rp := &replayer{samples: make([][]sampleRec, clients)}
	cfg := serve.Config{}
	if durableDir != "" {
		cfg.StateDir = filepath.Join(durableDir, "replay-server")
		walDir := filepath.Join(durableDir, "replay-wal")
		rp.dirs = []string{durableDir}
		keep := func([]byte) error { return nil }
		store, _, err := persist.Open(walDir, persist.Options{}, keep, func(uint64, []byte) error { return nil })
		if err != nil {
			return nil, err
		}
		rp.store = store
	}
	var err error
	if rp.inproc, err = newInproc(cfg); err != nil {
		return nil, err
	}
	streams := 0
	for _, p := range w.pools() {
		for i := range p {
			if p[i].strm >= streams {
				streams = p[i].strm + 1
			}
		}
	}
	rp.mirrors = make([]*access.Window, streams)
	rp.warm = make([]*blueprint.Topology, streams)
	if hot, ok := w.(*inferHot); ok {
		for i := range hot.reqs {
			rp.serve(&hot.reqs[i])
		}
	}
	return rp, nil
}

func (rp *replayer) close() {
	rp.inproc.close()
	if rp.store != nil {
		_ = rp.store.Close()
	}
	for _, d := range rp.dirs {
		os.RemoveAll(d)
	}
}

// inproc is a server driven through its handler with no socket.
type inproc struct {
	srv     *serve.Server
	handler http.Handler
}

func newInproc(cfg serve.Config) (*inproc, error) {
	srv, _, err := serve.NewDurable(cfg)
	if err != nil {
		return nil, err
	}
	return &inproc{srv: srv, handler: srv.Handler()}, nil
}

func (p *inproc) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_ = p.srv.Drain(ctx)
}

// serve runs rq through the handler and returns the status.
func (rp *inproc) serve(rq *request) int {
	hr := httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body))
	if rq.binary() {
		hr.Header.Set("Content-Type", serve.ContentTypeBinary)
		hr.Header.Set("Accept", serve.ContentTypeBinary)
	}
	rec := httptest.NewRecorder()
	rp.handler.ServeHTTP(rec, hr)
	return rec.Code
}

// hook is the runWindow callback: record the client's span, then the
// stage replay, then the handler replay, all on the client's goroutine.
func (rp *replayer) hook(c, seq int, rq *request, rs *response, sent, done time.Time, direct bool) {
	if rq.kind == kindInferSession && rp.mirrors[rq.strm] == nil {
		return // the pass began between a session's observe and its infer
	}
	s := sampleRec{seq: seq, kind: rq.kind, direct: direct}
	since := func(t time.Time) int64 { return int64(t.Sub(rp.epoch)) }
	reqSpan := spRequest
	if direct {
		reqSpan = spRequestDirect
	}
	s.at[reqSpan] = [2]int64{since(sent), since(done)}

	mark := func(sp int, t0 time.Time) time.Time {
		t1 := time.Now()
		s.at[sp] = [2]int64{since(t0), since(t1)}
		return t1
	}
	t := time.Now()
	replayStart := t
	ok := true
	switch rq.kind {
	case kindInferBinary, kindInferJSON:
		var req *serve.InferRequest
		var err error
		if rq.kind == kindInferBinary {
			req, err = serve.DecodeInferRequest(rq.body)
		} else {
			req = &serve.InferRequest{}
			err = json.Unmarshal(rq.body, req)
		}
		t = mark(spDecode, t)
		if err != nil {
			ok = false
			break
		}
		m, err := req.Measurements.ToMeasurements()
		t = mark(spPrepare, t)
		if err != nil || rs.hit {
			ok = err == nil
			break // a hit neither solves nor encodes
		}
		opts := req.Options.ToInferOptions()
		opts.Parallelism = 1
		res, err := blueprint.InferContext(context.Background(), m, opts)
		t = mark(spKernel, t)
		if err != nil {
			ok = false
			break
		}
		resp := inferResponse(res)
		if rq.kind == kindInferBinary {
			_, err = serve.EncodeInferResponse(&resp)
		} else {
			_, err = json.Marshal(resp)
		}
		t = mark(spEncode, t)
		ok = err == nil

	case kindInferSession:
		var req serve.InferRequest
		err := json.Unmarshal(rq.body, &req)
		t = mark(spDecode, t)
		if err != nil {
			ok = false
			break
		}
		m := rp.mirrors[rq.strm].Measurements()
		t = mark(spPrepare, t)
		opts := req.Options.ToInferOptions()
		opts.Parallelism = 1
		opts.WarmStart = rp.warm[rq.strm]
		res, err := blueprint.InferContext(context.Background(), m, opts)
		t = mark(spKernel, t)
		if err != nil {
			ok = false
			break
		}
		rp.warm[rq.strm] = res.Topology
		_, err = json.Marshal(inferResponse(res))
		t = mark(spEncode, t)
		ok = err == nil

	case kindObserve:
		req, err := serve.DecodeObserveRequest(rq.body)
		t = mark(spDecode, t)
		if err != nil {
			ok = false
			break
		}
		win := rp.mirrors[rq.strm]
		if win == nil {
			win = access.NewWindow(req.N, 0)
			rp.mirrors[rq.strm] = win
		}
		ack := serve.ObserveResponse{Session: req.Session, Digest: "0000000000000000"}
		ack.Folded = foldBatch(win, req)
		_ = win.Measurements() // the handler digests them after every fold
		ack.Epoch = win.Epoch()
		t = mark(spPrepare, t)
		if rp.store != nil {
			payload, err := serve.EncodeObserveRequest(req)
			if err == nil {
				_, err = rp.store.Append(payload)
			}
			t = mark(spWAL, t)
			if err != nil {
				ok = false
				break
			}
		}
		_, err = serve.EncodeObserveResponse(&ack)
		t = mark(spEncode, t)
		ok = err == nil

	case kindSchedule:
		var req serve.ScheduleRequest
		err := json.Unmarshal(rq.body, &req)
		t = mark(spDecode, t)
		if err != nil {
			ok = false
			break
		}
		topo, err := req.Topology.ToTopology()
		t = mark(spPrepare, t)
		if err != nil {
			ok = false
			break
		}
		sp, err := sched.NewSpeculative(scheduleEnv(&req), joint.NewCalculator(topo))
		if err != nil {
			ok = false
			break
		}
		sp.WarmStart(req.AvgThroughput)
		sch := sp.Schedule(0)
		t = mark(spKernel, t)
		_, err = json.Marshal(serve.ScheduleResponse{RB: sch.RB, DistinctUEs: sch.DistinctUEs(), Scheduler: "blu"})
		t = mark(spEncode, t)
		ok = err == nil
	}
	s.at[spReplay] = [2]int64{since(replayStart), since(t)}

	if rp.serve(rq) != http.StatusOK {
		ok = false
	}
	end := mark(spHandler, t)
	s.at[spSample] = [2]int64{since(sent), since(end)}
	if !ok {
		rp.failures.Add(1)
		return
	}
	rp.samples[c] = append(rp.samples[c], s)
}

// traceSpan is the on-disk form of one span.
type traceSpan struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxFileSamples bounds the samples per client written out; the
// aggregates always cover every sample.
const maxFileSamples = 1000

// write puts the spans in dir/trace-<workload>.json and checks, on the
// way, that no child span leaves its parent.
func (rp *replayer) write(dir, workload string, seed uint64) (string, error) {
	var spans []traceSpan
	total := 0
	for c, list := range rp.samples {
		total += len(list)
		for i := range list {
			s := &list[i]
			for sp := 0; sp < numSpans; sp++ {
				if s.at[sp][1] == 0 {
					continue
				}
				if p := spanParents[sp]; p >= 0 {
					if s.at[sp][0] < s.at[p][0] || s.at[sp][1] > s.at[p][1] {
						return "", fmt.Errorf("trace: span %s of %s/%d/%d leaves its parent %s",
							spanNames[sp], workload, c, s.seq, spanNames[p])
					}
				}
				if i >= maxFileSamples {
					continue
				}
				ts := traceSpan{
					ID:    fmt.Sprintf("%s/%d/%d", workload, c, s.seq),
					Name:  spanNames[sp],
					Start: s.at[sp][0],
					End:   s.at[sp][1],
				}
				if p := spanParents[sp]; p >= 0 {
					ts.Parent = spanNames[p]
				}
				spans = append(spans, ts)
			}
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Samples  int         `json:"samples"`
		Spans    []traceSpan `json:"spans"`
	}{workload, seed, total, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// shareNames are the blocking steps of a request, by the module that
// owns them. Each is an estimate from a re-run, so they add to 1 only
// approximately.
var shareNames = []string{"blueprint", "sched_joint", "access", "persist", "serve_codec", "serve_self", "outside"}

// kindGroups folds request kinds onto the three endpoints.
var kindGroups = [numKinds]int{0, 0, 0, 1, 2}

// traceStats are the aggregates the per-layer metrics read.
type traceStats struct {
	share  map[string]float64 // blocking-step shares of the summed request time
	selfUS [3]float64         // median handler − replay: infer, observe, schedule
	// Medians are taken per endpoint and the differences averaged, so a
	// mix of fast and slow endpoints does not decide the number.
	httpAddedUS  float64 // request on the handler's own listener − handler
	relayAddedUS float64 // request through the router − request.direct
}

func (rp *replayer) stats() traceStats {
	st := traceStats{share: map[string]float64{}}
	var request, decode, encode, wal int64
	var kernelInfer, kernelSched, prepFold, prepCodec, selfSum, outside int64
	var self, handler, routed, direct [3][]int64
	for _, list := range rp.samples {
		for i := range list {
			s := &list[i]
			req := s.dur(spRequest) + s.dur(spRequestDirect)
			request += req
			decode += s.dur(spDecode)
			encode += s.dur(spEncode)
			wal += s.dur(spWAL)
			switch s.kind {
			case kindSchedule:
				kernelSched += s.dur(spKernel)
				prepCodec += s.dur(spPrepare)
			case kindObserve:
				prepFold += s.dur(spPrepare)
			case kindInferSession:
				kernelInfer += s.dur(spKernel)
				prepFold += s.dur(spPrepare)
			default:
				kernelInfer += s.dur(spKernel)
				prepCodec += s.dur(spPrepare)
			}
			// The replay re-runs what the handler ran, but not at the same
			// moment: clamp so a noisy pair cannot produce negative time.
			sf := max(s.dur(spHandler)-s.dur(spReplay), 0)
			selfSum += sf
			outside += max(req-s.dur(spHandler), 0)
			g := kindGroups[s.kind]
			self[g] = append(self[g], sf)
			handler[g] = append(handler[g], s.dur(spHandler))
			if s.direct {
				direct[g] = append(direct[g], req)
			} else {
				routed[g] = append(routed[g], req)
			}
		}
	}
	if total := float64(request); total > 0 {
		st.share["blueprint"] = float64(kernelInfer) / total
		st.share["sched_joint"] = float64(kernelSched) / total
		st.share["access"] = float64(prepFold) / total
		st.share["persist"] = float64(wal) / total
		st.share["serve_codec"] = float64(decode+encode+prepCodec) / total
		st.share["serve_self"] = float64(selfSum) / total
		st.share["outside"] = float64(outside) / total
	}
	p50 := func(v []int64) float64 {
		sortInt64(v)
		return quantile(v, 0.5) / 1e3
	}
	groups := 0.0
	for g := range self {
		if len(handler[g]) == 0 {
			continue
		}
		groups++
		st.selfUS[g] = p50(self[g])
		// With alternation the direct requests are the ones that reached
		// the handler's own listener; without it, all of them did.
		own := routed[g]
		if len(direct[g]) > 0 {
			own = direct[g]
			st.relayAddedUS += p50(routed[g]) - p50(direct[g])
		}
		st.httpAddedUS += p50(own) - p50(handler[g])
	}
	if groups > 0 {
		st.httpAddedUS /= groups
		st.relayAddedUS /= groups
	}
	return st
}

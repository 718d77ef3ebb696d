package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"blu/internal/blueprint"
	"blu/internal/obs"
)

func init() { obs.Enable() }

// newTestServer builds a Server plus an httptest front end and
// registers cleanup that drains the pool.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

// inferBody is a valid 3-client infer request: one HT with q=0.3 over
// clients {0,1}, client 2 always clear.
func inferBody(seed uint64) []byte {
	req := InferRequest{
		Measurements: MeasurementsWire{
			N: 3,
			P: []float64{0.7, 0.7, 1},
			Pairs: []PairProb{
				{I: 0, J: 1, P: 0.7},
				{I: 0, J: 2, P: 0.7},
				{I: 1, J: 2, P: 0.7},
			},
		},
		Options: InferOptionsWire{Seed: seed},
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body
}

// jointBody is a valid joint request over a known 3-client topology.
func jointBody(timeoutMS int) []byte {
	req := JointRequest{
		Topology: TopologyWire{N: 3, HTs: []HTWire{
			{Q: 0.3, Clients: []int{0, 1}},
		}},
		Clear:     []int{0},
		Blocked:   []int{2},
		TimeoutMS: timeoutMS,
	}
	body, _ := json.Marshal(req)
	return body
}

func post(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return buf.Bytes()
}

// TestInferRefusesRetiredOptions is the regression for a one-request
// crash: the wire used to carry the solver's budgets into the solver,
// so "random_starts" = 2^62 made a pool worker panic in makeslice and
// took the process down. The budgets are the server's now. Naming one
// in JSON is a 400 that names it, a binary frame in the old 40-byte
// options layout is a 400, and the server keeps answering.
func TestInferRefusesRetiredOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	body := strings.Replace(string(inferBody(1)), `"options":{`, `"options":{"random_starts":4611686018427387904,`, 1)
	resp := post(t, ts.URL+"/v1/infer", []byte(body))
	if msg := readAll(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "random_starts") {
		t.Fatalf("retired JSON option: status %d, body %s; want 400 naming random_starts", resp.StatusCode, msg)
	}

	var req InferRequest
	if err := json.Unmarshal(inferBody(1), &req); err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeInferRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	// Old layout: i32 maxIterations, f64 tolerance, i32 randomStarts,
	// u64 seed, i32 maxHTs, i32 stallLimit, i32 perturbations, i32
	// timeoutMS in place of today's u64 seed, i32 timeoutMS.
	old := wireWriter{b: append([]byte(nil), frame[:len(frame)-12]...)}
	old.u32(0)
	old.f64(0)
	old.u32(math.MaxInt32)
	old.u64(1)
	old.u32(0)
	old.u32(0)
	old.u32(0)
	old.u32(0)
	binary.LittleEndian.PutUint32(old.b[6:], uint32(len(old.b)-frameHeaderLen))
	hreq, _ := http.NewRequest("POST", ts.URL+"/v1/infer", bytes.NewReader(old.b))
	hreq.Header.Set("Content-Type", ContentTypeBinary)
	resp, err = http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	if msg := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("old-layout binary frame: status %d, body %s; want 400", resp.StatusCode, msg)
	}

	resp = post(t, ts.URL+"/v1/infer", inferBody(1))
	if msg := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("infer after refusals: status %d, body %s", resp.StatusCode, msg)
	}
}

func TestHandlerValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"infer bad JSON", "POST", "/v1/infer", `{"measurements":`, http.StatusBadRequest},
		{"infer trailing garbage", "POST", "/v1/infer", string(inferBody(1)) + `{"x":1}`, http.StatusBadRequest},
		{"infer n=0", "POST", "/v1/infer", `{"measurements":{"n":0,"p":[]}}`, http.StatusBadRequest},
		{"infer n too large", "POST", "/v1/infer",
			fmt.Sprintf(`{"measurements":{"n":%d,"p":[]}}`, blueprint.MaxClients+1), http.StatusBadRequest},
		{"infer marginal count mismatch", "POST", "/v1/infer",
			`{"measurements":{"n":3,"p":[0.5,0.5]}}`, http.StatusBadRequest},
		{"infer probability out of range", "POST", "/v1/infer",
			`{"measurements":{"n":2,"p":[0.5,1.5]}}`, http.StatusBadRequest},
		{"infer pair out of range", "POST", "/v1/infer",
			`{"measurements":{"n":2,"p":[0.5,0.5],"pairs":[{"i":0,"j":5,"p":0.2}]}}`, http.StatusBadRequest},
		{"infer wrong method", "GET", "/v1/infer", "", http.StatusMethodNotAllowed},
		{"joint ht client out of range", "POST", "/v1/joint",
			`{"topology":{"n":2,"hts":[{"q":0.5,"clients":[0,7]}]}}`, http.StatusBadRequest},
		{"joint overlapping sets", "POST", "/v1/joint",
			`{"topology":{"n":3,"hts":[{"q":0.5,"clients":[0,1]}]},"clear":[0],"blocked":[0]}`, http.StatusBadRequest},
		{"schedule unknown flavor", "POST", "/v1/schedule",
			`{"topology":{"n":2,"hts":[]},"num_rb":4,"m":2,"scheduler":"edf","rates":[[1],[1]]}`, http.StatusBadRequest},
		{"schedule rates mismatch", "POST", "/v1/schedule",
			`{"topology":{"n":3,"hts":[]},"num_rb":4,"m":2,"rates":[[1],[1]]}`, http.StatusBadRequest},
		{"schedule ragged rates", "POST", "/v1/schedule",
			`{"topology":{"n":2,"hts":[]},"num_rb":4,"m":2,"rates":[[1,2],[1]]}`, http.StatusBadRequest},
		{"schedule short avg_throughput", "POST", "/v1/schedule",
			`{"topology":{"n":3,"hts":[]},"num_rb":4,"m":2,"rates":[[1],[1],[1]],"avg_throughput":[5,5]}`, http.StatusBadRequest},
		{"schedule long avg_throughput", "POST", "/v1/schedule",
			`{"topology":{"n":2,"hts":[]},"num_rb":4,"m":2,"rates":[[1],[1]],"avg_throughput":[5,5,5]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			if resp.StatusCode != c.want {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, c.want, body)
			}
			var er ErrorResponse
			if c.want >= 400 {
				if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
					t.Fatalf("error body not an ErrorResponse: %s", body)
				}
			}
		})
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.Unmarshal(readAll(t, resp), &h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz = %+v, %v", h, err)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(readAll(t, resp), &snap); err != nil {
		t.Fatalf("metrics not a snapshot: %v", err)
	}
	if _, ok := snap.Counters["serve_requests_total"]; !ok {
		t.Errorf("metrics snapshot missing serve_requests_total: %v", snap.Counters)
	}
}

// TestInferEndToEnd checks a full inference round trip recovers the
// planted hidden terminal.
func TestInferEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp := post(t, ts.URL+"/v1/infer", inferBody(7))
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ir InferResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if !ir.Converged {
		t.Fatalf("inference did not converge: %+v", ir)
	}
	if len(ir.Topology.HTs) != 1 {
		t.Fatalf("inferred %d HTs, want 1: %+v", len(ir.Topology.HTs), ir.Topology)
	}
	ht := ir.Topology.HTs[0]
	if len(ht.Clients) != 2 || ht.Clients[0] != 0 || ht.Clients[1] != 1 {
		t.Errorf("inferred HT clients %v, want [0 1]", ht.Clients)
	}
	if ht.Q < 0.25 || ht.Q > 0.35 {
		t.Errorf("inferred q = %v, want ≈0.3", ht.Q)
	}
}

// TestInferCacheByteIdentical is the cache determinism contract: a hit
// must return the exact bytes of the miss that populated it, and the
// hit counter must move.
func TestInferCacheByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	hits0 := obsCacheHit.Value()

	body := inferBody(11)
	first := post(t, ts.URL+"/v1/infer", body)
	firstBytes := readAll(t, first)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("miss status %d: %s", first.StatusCode, firstBytes)
	}
	if got := first.Header.Get("X-Blu-Cache"); got != "miss" {
		t.Errorf("first request cache header %q, want miss", got)
	}

	second := post(t, ts.URL+"/v1/infer", body)
	secondBytes := readAll(t, second)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("hit status %d", second.StatusCode)
	}
	if got := second.Header.Get("X-Blu-Cache"); got != "hit" {
		t.Errorf("second request cache header %q, want hit", got)
	}
	if !bytes.Equal(firstBytes, secondBytes) {
		t.Errorf("cache hit not byte-identical:\nmiss %s\nhit  %s", firstBytes, secondBytes)
	}
	if obsCacheHit.Value() == hits0 {
		t.Error("serve_cache_hit_total did not advance")
	}

	// Same measurements sent with reordered pairs digest identically and
	// hit the same entry.
	reordered := []byte(`{"measurements":{"n":3,"p":[0.7,0.7,1],"pairs":[` +
		`{"i":1,"j":2,"p":0.7},{"i":0,"j":2,"p":0.7},{"i":0,"j":1,"p":0.7}]},` +
		`"options":{"seed":11}}`)
	third := post(t, ts.URL+"/v1/infer", reordered)
	thirdBytes := readAll(t, third)
	if got := third.Header.Get("X-Blu-Cache"); got != "hit" {
		t.Errorf("reordered request cache header %q, want hit", got)
	}
	if !bytes.Equal(firstBytes, thirdBytes) {
		t.Error("reordered request returned different bytes")
	}
}

func TestDigestInfer(t *testing.T) {
	m1, err := (&MeasurementsWire{N: 3, P: []float64{0.7, 0.7, 1},
		Pairs: []PairProb{{0, 1, 0.7}, {0, 2, 0.7}, {1, 2, 0.7}}}).ToMeasurements()
	if err != nil {
		t.Fatal(err)
	}
	// Unlisted pairs default to the independence product, so listing
	// p(1,2)=p(1)·p(2) explicitly digests the same as omitting it.
	m2, err := (&MeasurementsWire{N: 3, P: []float64{0.7, 0.7, 1},
		Pairs: []PairProb{{0, 1, 0.7}}}).ToMeasurements()
	if err != nil {
		t.Fatal(err)
	}
	var o blueprint.InferOptions
	if digestInfer(m1, o) != digestInfer(m2, o) {
		t.Error("equivalent measurements digest differently")
	}
	o2 := o
	o2.Seed = 99
	if digestInfer(m1, o) == digestInfer(m1, o2) {
		t.Error("different seeds share a digest")
	}
	m3, err := (&MeasurementsWire{N: 3, P: []float64{0.7, 0.6, 1},
		Pairs: []PairProb{{0, 1, 0.6}}}).ToMeasurements()
	if err != nil {
		t.Fatal(err)
	}
	if digestInfer(m1, o) == digestInfer(m3, o) {
		t.Error("different measurements share a digest")
	}
}

func TestLRUCacheEviction(t *testing.T) {
	evict0 := obsCacheEvict.Value()
	c := newLRUCache(2)
	c.put(1, []byte("a"))
	c.put(2, []byte("b"))
	if _, ok := c.get(1); !ok { // refresh 1 → 2 becomes LRU
		t.Fatal("entry 1 missing")
	}
	c.put(3, []byte("c"))
	if _, ok := c.get(2); ok {
		t.Error("LRU entry 2 not evicted")
	}
	if b, ok := c.get(1); !ok || string(b) != "a" {
		t.Error("recently used entry 1 evicted")
	}
	if b, ok := c.get(3); !ok || string(b) != "c" {
		t.Error("newest entry 3 missing")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	if obsCacheEvict.Value() == evict0 {
		t.Error("serve_cache_evict_total did not advance")
	}
}

// followAsLeader takes the flight an infer of inferBody(seed) joins,
// then posts that infer in the background and waits until it has
// coalesced onto the flight as a follower. publish finishes the flight
// with the given result and returns the follower's response.
func followAsLeader(t *testing.T, s *Server, url string, seed uint64) (publish func(status int, body []byte) *http.Response) {
	t.Helper()
	var req InferRequest
	if err := json.Unmarshal(inferBody(seed), &req); err != nil {
		t.Fatal(err)
	}
	m, err := req.Measurements.ToMeasurements()
	if err != nil {
		t.Fatal(err)
	}
	opts := req.Options.ToInferOptions()
	opts.Parallelism = solverParallelism
	key := digestInfer(m, opts)
	f, leader := s.flights.join(key)
	if !leader {
		t.Fatal("flight already in progress")
	}
	coalesced0 := obsCoalesced.Value()
	respCh := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(url+"/v1/infer", "application/json", bytes.NewReader(inferBody(seed)))
		if err != nil {
			t.Errorf("follower POST: %v", err)
		}
		respCh <- resp
	}()
	deadline := time.Now().Add(5 * time.Second)
	for obsCoalesced.Value() == coalesced0 {
		if time.Now().After(deadline) {
			t.Fatal("request never coalesced onto the flight")
		}
		time.Sleep(time.Millisecond)
	}
	return func(status int, body []byte) *http.Response {
		s.flights.finish(key, f, status, body)
		resp := <-respCh
		if resp == nil {
			t.FailNow()
		}
		return resp
	}
}

// TestInferCoalescing pins the singleflight contract: while a leader
// owns a digest's flight, an identical request becomes a follower and
// returns the leader's published bytes without running the solver.
func TestInferCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	// A sentinel only a follower could receive.
	sentinel := []byte(`{"sentinel":true}`)
	resp := followAsLeader(t, s, ts.URL, 21)(http.StatusOK, sentinel)
	if got := readAll(t, resp); !bytes.Equal(got, sentinel) {
		t.Errorf("follower returned %s, want the leader's published bytes", got)
	}
}

// TestInferCoalescedFollowerOfFailedLeader: a follower relaying a shed
// or timed-out leader is answered like the leader — a 429 carries
// Retry-After and counts as a queue reject, a 504 counts as a timeout.
func TestInferCoalescedFollowerOfFailedLeader(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	for i, c := range []struct {
		status     int
		counter    *obs.Counter
		retryAfter string
	}{
		{http.StatusTooManyRequests, obsRejected, "1"},
		{http.StatusGatewayTimeout, obsTimeouts, ""},
	} {
		publish := followAsLeader(t, s, ts.URL, uint64(41+i))
		count0 := c.counter.Value()
		resp := publish(c.status, errorBody("leader failed"))
		body := readAll(t, resp)
		if resp.StatusCode != c.status {
			t.Fatalf("follower status %d, want %d (body %s)", resp.StatusCode, c.status, body)
		}
		if got := resp.Header.Get("Retry-After"); got != c.retryAfter {
			t.Errorf("%d: follower Retry-After %q, want %q", c.status, got, c.retryAfter)
		}
		if c.counter.Value() == count0 {
			t.Errorf("%d: follower's answer was not counted", c.status)
		}
	}
}

// blockWorkers occupies every pool worker with jobs that hold until
// release is closed, returning once all of them are running.
func blockWorkers(t *testing.T, s *Server, n int) (release chan struct{}, done *sync.WaitGroup) {
	t.Helper()
	release = make(chan struct{})
	done = &sync.WaitGroup{}
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			err := s.submit(context.Background(), func(context.Context) {
				started <- struct{}{}
				<-release
			})
			if err != nil {
				t.Errorf("blocker submit: %v", err)
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("blocker never started")
		}
	}
	return release, done
}

// wedge saturates a Workers: 1, QueueDepth: 1 server — the worker held
// by one job, the queue slot by another — so the next submit is shed.
// The returned func lets both go and waits for them.
func wedge(t *testing.T, s *Server) (release func()) {
	t.Helper()
	hold, blockers := blockWorkers(t, s, 1)
	// The queued job only runs once the blocker finishes, so both are
	// released together.
	qhold := make(chan struct{})
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		_ = s.submit(context.Background(), func(context.Context) { <-qhold })
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue slot never filled")
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		close(hold)
		close(qhold)
		blockers.Wait()
		qwg.Wait()
	}
}

func TestQueueFullReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	defer wedge(t, s)()

	rejected0 := obsRejected.Value()
	resp := post(t, ts.URL+"/v1/joint", jointBody(0))
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if obsRejected.Value() == rejected0 {
		t.Error("serve_queue_reject_total did not advance")
	}
}

func TestQueuedTimeoutReturns504(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16})
	release, blockers := blockWorkers(t, s, 1)
	defer func() { close(release); blockers.Wait() }()

	timeouts0 := obsTimeouts.Value()
	// The worker is held, so a 1ms deadline expires while the job is
	// still queued; the handler must answer 504 without running it.
	resp := post(t, ts.URL+"/v1/joint", jointBody(1))
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("joint status %d, want 504 (body %s)", resp.StatusCode, body)
	}
	var req InferRequest
	if err := json.Unmarshal(inferBody(31), &req); err != nil {
		t.Fatal(err)
	}
	req.TimeoutMS = 1
	ib, _ := json.Marshal(req)
	resp = post(t, ts.URL+"/v1/infer", ib)
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("infer status %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if obsTimeouts.Value() == timeouts0 {
		t.Error("serve_timeout_total did not advance")
	}
}

func TestScheduleEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, flavor := range []string{"blu", "aa", "pf"} {
		req := ScheduleRequest{
			Topology: TopologyWire{N: 4, HTs: []HTWire{
				{Q: 0.4, Clients: []int{0, 1}},
			}},
			NumRB:     8,
			M:         2,
			Scheduler: flavor,
			Rates:     [][]float64{{1e6}, {1e6}, {2e6}, {2e6}},
		}
		body, _ := json.Marshal(req)
		resp := post(t, ts.URL+"/v1/schedule", body)
		got := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", flavor, resp.StatusCode, got)
		}
		var sr ScheduleResponse
		if err := json.Unmarshal(got, &sr); err != nil {
			t.Fatalf("%s: %v", flavor, err)
		}
		if sr.Scheduler != flavor {
			t.Errorf("scheduler echo %q, want %q", sr.Scheduler, flavor)
		}
		if len(sr.RB) != 8 {
			t.Fatalf("%s: %d RBs, want 8", flavor, len(sr.RB))
		}
		granted := 0
		for b, ues := range sr.RB {
			if ues == nil {
				t.Fatalf("%s: rb %d serialized as null", flavor, b)
			}
			granted += len(ues)
			for _, ue := range ues {
				if ue < 0 || ue >= 4 {
					t.Fatalf("%s: rb %d grants UE %d", flavor, b, ue)
				}
			}
		}
		if granted == 0 {
			t.Errorf("%s: empty schedule", flavor)
		}
	}
}

func TestSubmitAfterDrainRejected(t *testing.T) {
	s := newServer(Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	err := s.submit(context.Background(), func(context.Context) {})
	if err != errDraining {
		t.Fatalf("submit after drain: %v, want errDraining", err)
	}
}

// TestSIGTERMDrainLosesNothing wires the daemon's signal path the way
// cmd/blud does and checks that a drain triggered while requests are
// queued behind a busy worker completes every one of them. (The run
// manifest is the command's, written after the drain; obs tests it.)
func TestSIGTERMDrainLosesNothing(t *testing.T) {
	s := newServer(Config{Workers: 1, QueueDepth: 32})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	sigch := make(chan os.Signal, 1)
	signal.Notify(sigch, syscall.SIGTERM)
	defer signal.Stop(sigch)

	release, blockers := blockWorkers(t, s, 1)

	// Queue five requests behind the held worker.
	const inflight = 5
	type result struct {
		status int
		body   []byte
		err    error
	}
	results := make(chan result, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			resp, err := http.Post("http://"+addr+"/v1/joint", "application/json", bytes.NewReader(jointBody(0)))
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			results <- result{status: resp.StatusCode, body: buf.Bytes()}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) < inflight {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests queued", len(s.queue))
		}
		time.Sleep(time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sigch:
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM never delivered")
	}

	// Un-wedge the worker only after the drain has begun, so the five
	// requests are genuinely in flight across the shutdown.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	blockers.Wait()

	for i := 0; i < inflight; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("in-flight request lost: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("in-flight request got %d: %s", r.status, r.body)
		}
		var jr JointResponse
		if err := json.Unmarshal(r.body, &jr); err != nil {
			t.Fatalf("in-flight response corrupt: %v", err)
		}
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"blu/internal/access"
	"blu/internal/blueprint"
)

// htObservations builds count subframes over 3 clients where {0,1}
// share a hidden terminal active in the first blockedOf of every 10
// subframes and client 2 always clears — the serving twin of the
// planted topology in inferBody.
func htObservations(count, blockedOf int) []ObservationWire {
	out := make([]ObservationWire, count)
	for k := range out {
		accessed := []int{2}
		if k%10 >= blockedOf {
			accessed = []int{0, 1, 2}
		}
		out[k] = ObservationWire{Scheduled: []int{0, 1, 2}, Accessed: accessed}
	}
	return out
}

func observeBody(t *testing.T, req ObserveRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postObserve(t *testing.T, url string, req ObserveRequest) ObserveResponse {
	t.Helper()
	resp := post(t, url+"/v1/observe", observeBody(t, req))
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe status %d: %s", resp.StatusCode, body)
	}
	var or ObserveResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	return or
}

// TestObserveInferRefreshLoop is the acceptance path for the streaming
// estimator: observe raw outcomes, infer by session (warm-started and
// cached), observe a drift, and re-infer — all against one live server,
// with invalidation hitting exactly the session's minted entries.
func TestObserveInferRefreshLoop(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	observes0 := obsObserves.Value()
	invalid0 := obsInvalidation.Value()

	or := postObserve(t, ts.URL, ObserveRequest{
		Session: "cell-a", N: 3, Observations: htObservations(40, 3),
	})
	if or.Session != "cell-a" || or.Folded != 40 {
		t.Fatalf("observe folded %d obs for %q, want 40 for cell-a", or.Folded, or.Session)
	}
	if len(or.Digest) != 16 {
		t.Fatalf("digest %q is not 16 hex digits", or.Digest)
	}
	if obsObserves.Value() != observes0+1 {
		t.Error("serve_observe_total did not advance")
	}

	inferReq := []byte(`{"session":"cell-a","options":{"seed":7}}`)
	first := post(t, ts.URL+"/v1/infer", inferReq)
	firstBytes := readAll(t, first)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("session infer status %d: %s", first.StatusCode, firstBytes)
	}
	if got := first.Header.Get("X-Blu-Cache"); got != "miss" {
		t.Errorf("first session infer cache header %q, want miss", got)
	}
	var ir InferResponse
	if err := json.Unmarshal(firstBytes, &ir); err != nil {
		t.Fatal(err)
	}
	if !ir.Converged {
		t.Fatalf("session inference did not converge: %+v", ir)
	}
	if len(ir.Topology.HTs) != 1 || len(ir.Topology.HTs[0].Clients) != 2 ||
		ir.Topology.HTs[0].Clients[0] != 0 || ir.Topology.HTs[0].Clients[1] != 1 {
		t.Fatalf("session inference missed the planted HT: %+v", ir.Topology)
	}
	if q := ir.Topology.HTs[0].Q; q < 0.25 || q > 0.35 {
		t.Errorf("inferred q = %v, want ≈0.3", q)
	}

	// The second infer carries the first result as its warm seed (a new
	// cache key); the third repeats the second's key exactly and must be
	// a byte-identical hit — the estimator didn't move, so nothing was
	// invalidated.
	second := post(t, ts.URL+"/v1/infer", inferReq)
	secondBytes := readAll(t, second)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second session infer status %d: %s", second.StatusCode, secondBytes)
	}
	third := post(t, ts.URL+"/v1/infer", inferReq)
	thirdBytes := readAll(t, third)
	if got := third.Header.Get("X-Blu-Cache"); got != "hit" {
		t.Errorf("steady-state session infer cache header %q, want hit", got)
	}
	if !bytes.Equal(secondBytes, thirdBytes) {
		t.Errorf("steady-state cache hit not byte-identical:\nmiss %s\nhit  %s", secondBytes, thirdBytes)
	}
	if obsInvalidation.Value() != invalid0 {
		t.Error("invalidation counted while the digest never moved")
	}

	// Drift: the hidden terminal heats up (6 of 10 blocked). The digest
	// must move and take every minted entry with it.
	or2 := postObserve(t, ts.URL, ObserveRequest{
		Session: "cell-a", N: 3, Observations: htObservations(40, 6), Seal: true,
	})
	if or2.Digest == or.Digest {
		t.Fatal("digest did not move after drifted observations")
	}
	if or2.Invalidated < 1 {
		t.Fatalf("drift invalidated %d entries, want ≥ 1", or2.Invalidated)
	}
	if obsInvalidation.Value() < invalid0+int64(or2.Invalidated) {
		t.Error("serve_invalidation_total did not advance with the drift")
	}

	fourth := post(t, ts.URL+"/v1/infer", inferReq)
	fourthBytes := readAll(t, fourth)
	if fourth.StatusCode != http.StatusOK {
		t.Fatalf("post-drift infer status %d: %s", fourth.StatusCode, fourthBytes)
	}
	if got := fourth.Header.Get("X-Blu-Cache"); got != "miss" {
		t.Errorf("post-drift infer cache header %q, want miss (stale entry must be gone)", got)
	}
	var ir2 InferResponse
	if err := json.Unmarshal(fourthBytes, &ir2); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fourthBytes, firstBytes) {
		t.Error("post-drift inference returned the pre-drift bytes")
	}
}

// TestObserveDigestMatchesBatchEstimator: within one unsealed epoch the
// windowed estimator is definitionally equal to a batch
// access.Estimator fed the same outcomes, so the session digest must
// equal the digest of the batch measurements.
func TestObserveDigestMatchesBatchEstimator(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	obsrv := htObservations(25, 4)
	or := postObserve(t, ts.URL, ObserveRequest{Session: "twin", N: 3, Observations: obsrv})

	est := access.NewEstimator(3)
	for _, ob := range obsrv {
		var acc blueprint.ClientSet
		for _, c := range ob.Accessed {
			acc = acc.Add(c)
		}
		est.Record(ob.Scheduled, acc)
	}
	want := fmt.Sprintf("%016x", digestMeasurements(est.Measurements()))
	if or.Digest != want {
		t.Errorf("session digest %s, batch estimator digest %s", or.Digest, want)
	}
}

func TestObserveValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// A live session to collide with.
	postObserve(t, ts.URL, ObserveRequest{Session: "live", N: 3, Observations: htObservations(5, 3)})

	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"observe bad JSON", "/v1/observe", `{"session":`, http.StatusBadRequest},
		{"observe missing session", "/v1/observe", `{"n":3,"observations":[]}`, http.StatusBadRequest},
		{"observe session too long", "/v1/observe",
			fmt.Sprintf(`{"session":%q,"n":3}`, strings.Repeat("s", maxSessionIDLen+1)), http.StatusBadRequest},
		{"observe n=0", "/v1/observe", `{"session":"x","n":0}`, http.StatusBadRequest},
		{"observe n too large", "/v1/observe",
			fmt.Sprintf(`{"session":"x","n":%d}`, blueprint.MaxClients+1), http.StatusBadRequest},
		{"observe scheduled out of range", "/v1/observe",
			`{"session":"x","n":3,"observations":[{"scheduled":[0,5]}]}`, http.StatusBadRequest},
		{"observe negative scheduled", "/v1/observe",
			`{"session":"x","n":3,"observations":[{"scheduled":[-1]}]}`, http.StatusBadRequest},
		{"observe accessed out of range", "/v1/observe",
			`{"session":"x","n":3,"observations":[{"scheduled":[0],"accessed":[3]}]}`, http.StatusBadRequest},
		{"observe n mismatch", "/v1/observe", `{"session":"live","n":4}`, http.StatusConflict},
		{"infer unknown session", "/v1/infer", `{"session":"ghost"}`, http.StatusNotFound},
		{"infer session plus inline measurements", "/v1/infer",
			`{"session":"live","measurements":{"n":3,"p":[0.7,0.7,1]}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := post(t, ts.URL+c.path, []byte(c.body))
			body := readAll(t, resp)
			if resp.StatusCode != c.want {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, c.want, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("error body not an ErrorResponse: %s", body)
			}
		})
	}

	// A rejected batch must fold nothing: the next digest equals the
	// pre-rejection digest.
	before := postObserve(t, ts.URL, ObserveRequest{Session: "live", N: 3})
	post(t, ts.URL+"/v1/observe",
		[]byte(`{"session":"live","n":3,"observations":[{"scheduled":[0]},{"scheduled":[9]}]}`)).Body.Close()
	after := postObserve(t, ts.URL, ObserveRequest{Session: "live", N: 3})
	if before.Digest != after.Digest {
		t.Error("a rejected batch moved the session digest")
	}
}

// TestObserveSessionEviction: the registry is bounded LRU; an evicted
// session 404s on infer and its minted cache entries are dropped.
func TestObserveSessionEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.sessions = newSessionStore(2, windowEpochs)
	evict0 := obsSessionEvict.Value()
	invalid0 := obsInvalidation.Value()

	postObserve(t, ts.URL, ObserveRequest{Session: "a", N: 3, Observations: htObservations(20, 3)})
	resp := post(t, ts.URL+"/v1/infer", []byte(`{"session":"a","options":{"seed":3}}`))
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("infer on session a: %d %s", resp.StatusCode, body)
	}
	cached := s.cache.len()
	if cached == 0 {
		t.Fatal("session infer minted no cache entry")
	}

	postObserve(t, ts.URL, ObserveRequest{Session: "b", N: 3})
	postObserve(t, ts.URL, ObserveRequest{Session: "c", N: 3}) // evicts a

	if obsSessionEvict.Value() != evict0+1 {
		t.Error("serve_session_evict_total did not advance")
	}
	if s.sessions.len() != 2 {
		t.Errorf("registry holds %d sessions, want 2", s.sessions.len())
	}
	if obsInvalidation.Value() == invalid0 {
		t.Error("evicting a session did not invalidate its minted entries")
	}
	if got := s.cache.len(); got != cached-1 {
		t.Errorf("cache holds %d entries after eviction, want %d", got, cached-1)
	}
	resp = post(t, ts.URL+"/v1/infer", []byte(`{"session":"a"}`))
	if body := readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("infer on evicted session: %d %s, want 404", resp.StatusCode, body)
	}
}

// mintedKeys snapshots the cache keys a session has minted.
func mintedKeys(sess *session) []uint64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	var keys []uint64
	for k := range sess.minted {
		keys = append(keys, k)
	}
	return keys
}

// TestShedObserveTouchesNoSessions is the backpressure regression for
// the session registry: an observe for a new id used to create its
// session — evicting the least-recently-used one and invalidating that
// session's cached answers — before submit, so a request shed with 429
// still rewrote the registry.
func TestShedObserveTouchesNoSessions(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	s.sessions = newSessionStore(1, windowEpochs)
	postObserve(t, ts.URL, ObserveRequest{Session: "resident", N: 3, Observations: htObservations(20, 3)})
	sessionInfer(t, ts.URL, "resident")
	keys := mintedKeys(s.sessions.get("resident"))
	if len(keys) == 0 {
		t.Fatal("session infer minted no cache key")
	}
	evict0 := obsSessionEvict.Value()

	release := wedge(t, s)
	resp := post(t, ts.URL+"/v1/observe", observeBody(t, ObserveRequest{Session: "newcomer", N: 3, Observations: htObservations(5, 3)}))
	body := readAll(t, resp)
	release()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if s.sessions.get("newcomer") != nil {
		t.Error("a shed observe created its session")
	}
	if s.sessions.get("resident") == nil || obsSessionEvict.Value() != evict0 {
		t.Error("a shed observe evicted the resident session")
	}
	for _, k := range keys {
		if _, ok := s.cache.peek(k); !ok {
			t.Errorf("a shed observe invalidated the resident session's key %016x", k)
		}
	}
}

// TestObserveBinary drives /v1/observe with binary frames both ways
// and checks the result is indistinguishable from the JSON spelling:
// same fold counts and — because the digest is content-only — the same
// digest as a JSON twin session fed identical outcomes.
func TestObserveBinary(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	obsrv := htObservations(30, 3)
	jsonResp := postObserve(t, ts.URL, ObserveRequest{Session: "json-twin", N: 3, Observations: obsrv})

	frame, err := EncodeObserveRequest(&ObserveRequest{Session: "bin-twin", N: 3, Observations: obsrv})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/observe", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.Header.Set("Accept", ContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary observe status %d: %s", resp.StatusCode, body)
	}
	if ct := mediaType(resp.Header.Get("Content-Type")); ct != ContentTypeBinary {
		t.Fatalf("binary observe answered Content-Type %q", ct)
	}
	br, err := DecodeObserveResponse(body)
	if err != nil {
		t.Fatalf("binary observe response does not decode: %v", err)
	}
	if br.Session != "bin-twin" || br.Folded != jsonResp.Folded {
		t.Errorf("binary response %+v disagrees with JSON twin %+v", br, jsonResp)
	}
	if br.Digest != jsonResp.Digest {
		t.Errorf("binary digest %s, JSON twin digest %s", br.Digest, jsonResp.Digest)
	}
	if _, err := strconv.ParseUint(br.Digest, 16, 64); err != nil {
		t.Errorf("binary digest %q is not hex", br.Digest)
	}
}

// TestObserveCodecRoundTrip pins the observe frames the way
// codec_test.go pins the infer frames: encode → decode → identical
// struct, and representability errors instead of truncation.
func TestObserveCodecRoundTrip(t *testing.T) {
	req := &ObserveRequest{
		Session: "cell-7", N: 12, Seal: true, TimeoutMS: 1500,
		Observations: []ObservationWire{
			{Scheduled: []int{0, 3, 7, 11}, Accessed: []int{0, 7}},
			{Scheduled: []int{1, 2}, Accessed: []int{}},
			{Scheduled: []int{}, Accessed: []int{}},
		},
	}
	frame, err := EncodeObserveRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeObserveRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Session != req.Session || got.N != req.N || got.Seal != req.Seal ||
		got.TimeoutMS != req.TimeoutMS || len(got.Observations) != len(req.Observations) {
		t.Fatalf("round trip mangled the request: %+v", got)
	}
	for i := range req.Observations {
		if fmt.Sprint(got.Observations[i].Scheduled) != fmt.Sprint(req.Observations[i].Scheduled) {
			t.Errorf("obs %d scheduled %v, want %v", i, got.Observations[i].Scheduled, req.Observations[i].Scheduled)
		}
		if fmt.Sprint(got.Observations[i].Accessed) != fmt.Sprint(req.Observations[i].Accessed) {
			t.Errorf("obs %d accessed %v, want %v", i, got.Observations[i].Accessed, req.Observations[i].Accessed)
		}
	}

	resp := &ObserveResponse{Session: "cell-7", Folded: 3, Epoch: 9,
		Digest: "00ff00ff00ff00ff", Invalidated: 2, Evicted: 1}
	rframe, err := EncodeObserveResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	rgot, err := DecodeObserveResponse(rframe)
	if err != nil {
		t.Fatal(err)
	}
	if *rgot != *resp {
		t.Errorf("response round trip: %+v, want %+v", rgot, resp)
	}

	for name, bad := range map[string]*ObserveRequest{
		"accessed beyond mask": {Session: "x", N: 3,
			Observations: []ObservationWire{{Scheduled: []int{0}, Accessed: []int{64}}}},
		"scheduled beyond byte": {Session: "x", N: 3,
			Observations: []ObservationWire{{Scheduled: []int{256}}}},
		"session beyond byte": {Session: strings.Repeat("s", 256), N: 3},
	} {
		if _, err := EncodeObserveRequest(bad); err == nil {
			t.Errorf("%s: encode accepted an unrepresentable request", name)
		}
	}
	if _, err := EncodeObserveResponse(&ObserveResponse{Session: "x", Digest: "nope"}); err == nil {
		t.Error("encode accepted a non-hex digest")
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"runtime"
	"testing"
)

// codecTestRequest is a representative infer request touching every
// wire field: marginals, a full pair list, a triple, a seed and a
// timeout.
func codecTestRequest() *InferRequest {
	return &InferRequest{
		Measurements: MeasurementsWire{
			N: 4,
			P: []float64{0.7, 0.65, 0.8, 0.9},
			Pairs: []PairProb{
				{I: 0, J: 1, P: 0.56}, {I: 0, J: 2, P: 0.58}, {I: 0, J: 3, P: 0.63},
				{I: 1, J: 2, P: 0.52}, {I: 1, J: 3, P: 0.59}, {I: 2, J: 3, P: 0.72},
			},
			Triples: []TripleProb{{I: 0, J: 1, K: 2, P: 0.41}},
		},
		Options:   InferOptionsWire{Seed: 0xB1E0},
		TimeoutMS: 1500,
	}
}

func codecTestResponse() *InferResponse {
	return &InferResponse{
		Topology: TopologyWire{N: 4, HTs: []HTWire{
			{Q: 0.3, Clients: []int{0, 1}},
			{Q: 0.45, Clients: []int{1, 2, 3}},
		}},
		Violation:    0.0123,
		MaxViolation: 0.031,
		Converged:    true,
		Starts:       17,
		Iterations:   421,
	}
}

func codecTestObserveRequest() *ObserveRequest {
	return &ObserveRequest{Session: "cell-7", N: 4, Seal: true, TimeoutMS: 250, Observations: []ObservationWire{
		{Scheduled: []int{0, 1, 3}, Accessed: []int{0, 3}},
		{Scheduled: []int{2}, Accessed: []int{}},
	}}
}

func codecTestObserveResponse() *ObserveResponse {
	return &ObserveResponse{Session: "cell-7", Folded: 2, Epoch: 5, Digest: "9e3779b97f4a7c15", Invalidated: 1}
}

func TestBinaryCodecRequestRoundTrip(t *testing.T) {
	req := codecTestRequest()
	frame, err := EncodeInferRequest(req)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeInferRequest(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, req)
	}

	// The binary spelling and the JSON spelling of one request must
	// canonicalize to the same digest, or the server's cache and
	// coalescing would split by codec even with the identical payload.
	jbody, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	var jreq InferRequest
	if err := json.Unmarshal(jbody, &jreq); err != nil {
		t.Fatalf("json round trip: %v", err)
	}
	bm, err := got.Measurements.ToMeasurements()
	if err != nil {
		t.Fatalf("binary-decoded measurements invalid: %v", err)
	}
	jm, err := jreq.Measurements.ToMeasurements()
	if err != nil {
		t.Fatalf("json-decoded measurements invalid: %v", err)
	}
	bd := digestInfer(bm, got.Options.ToInferOptions())
	jd := digestInfer(jm, jreq.Options.ToInferOptions())
	if bd != jd {
		t.Errorf("digest disagrees across codecs: binary %#x, json %#x", bd, jd)
	}

	if len(frame) >= len(jbody) {
		t.Errorf("binary frame (%d bytes) not smaller than JSON (%d bytes)", len(frame), len(jbody))
	}
}

func TestBinaryCodecResponseRoundTrip(t *testing.T) {
	resp := codecTestResponse()
	frame, err := EncodeInferResponse(resp)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeInferResponse(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, resp)
	}
	// The decoded struct must render to the exact JSON the server would
	// have sent for a JSON client — binary is a transport, not a fork of
	// the schema.
	want, _ := json.Marshal(resp)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(gotJSON, want) {
		t.Errorf("JSON rendering diverged:\n got %s\nwant %s", gotJSON, want)
	}
}

// TestBinaryCodecRejectsMalformed drives the decoders through the
// damage matrix: every case must error (wrapping errMalformedFrame)
// and none may panic. Truncations cover every prefix length of a valid
// frame, so each field boundary is hit.
func TestBinaryCodecRejectsMalformed(t *testing.T) {
	reqFrame, err := EncodeInferRequest(codecTestRequest())
	if err != nil {
		t.Fatal(err)
	}
	respFrame, err := EncodeInferResponse(codecTestResponse())
	if err != nil {
		t.Fatal(err)
	}

	obsReqFrame, err := EncodeObserveRequest(codecTestObserveRequest())
	if err != nil {
		t.Fatal(err)
	}
	obsRespFrame, err := EncodeObserveResponse(codecTestObserveResponse())
	if err != nil {
		t.Fatal(err)
	}

	decodeReq := func(b []byte) error { _, err := DecodeInferRequest(b); return err }
	decodeResp := func(b []byte) error { _, err := DecodeInferResponse(b); return err }
	decodeObsReq := func(b []byte) error { _, err := DecodeObserveRequest(b); return err }
	decodeObsResp := func(b []byte) error { _, err := DecodeObserveResponse(b); return err }

	for _, frame := range []struct {
		name   string
		valid  []byte
		decode func([]byte) error
	}{
		{"request", reqFrame, decodeReq},
		{"response", respFrame, decodeResp},
		{"observe request", obsReqFrame, decodeObsReq},
		{"observe response", obsRespFrame, decodeObsResp},
	} {
		for cut := 0; cut < len(frame.valid); cut++ {
			if err := frame.decode(frame.valid[:cut]); err == nil {
				t.Errorf("%s truncated to %d bytes decoded successfully", frame.name, cut)
			} else if !errors.Is(err, errMalformedFrame) {
				t.Errorf("%s truncated to %d bytes: error %v does not wrap errMalformedFrame", frame.name, cut, err)
			}
		}
		mutate := func(name string, off int, b byte) {
			bad := append([]byte(nil), frame.valid...)
			bad[off] = b
			if err := frame.decode(bad); err == nil {
				t.Errorf("%s with %s decoded successfully", frame.name, name)
			}
		}
		mutate("bad magic", 0, 'X')
		mutate("bad version", 4, 99)
		mutate("bad kind", 5, 7)
		mutate("inflated length", 6, frame.valid[6]+1)
		if err := frame.decode(append(append([]byte(nil), frame.valid...), 0xEE)); err == nil {
			t.Errorf("%s with a trailing byte decoded successfully", frame.name)
		}
	}

	// A request frame is not a response frame and vice versa.
	if err := decodeResp(reqFrame); err == nil {
		t.Error("request frame decoded as a response")
	}
	if err := decodeReq(respFrame); err == nil {
		t.Error("response frame decoded as a request")
	}

	// An absurd declared length must be rejected before any allocation.
	huge := append([]byte(nil), reqFrame[:frameHeaderLen]...)
	huge[6], huge[7], huge[8], huge[9] = 0xFF, 0xFF, 0xFF, 0x7F
	if err := decodeReq(huge); err == nil {
		t.Error("frame declaring a 2GB payload decoded successfully")
	}

	// A converged byte outside {0,1} is non-canonical and rejects.
	bad := append([]byte(nil), respFrame...)
	bad[len(bad)-9] = 2
	if err := decodeResp(bad); err == nil {
		t.Error("response with converged=2 decoded successfully")
	}

	// A forged observation count is refused before anything is sized by
	// it: 19 bytes declaring 65,535 observations used to allocate 3.15 MB
	// of observations first.
	forged, err := EncodeObserveRequest(&ObserveRequest{})
	if err != nil || len(forged) != 19 {
		t.Fatalf("empty observe frame is %d bytes (%v), want 19", len(forged), err)
	}
	forged[17], forged[18] = 0xFF, 0xFF
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		if err := decodeObsReq(forged); !errors.Is(err, errMalformedFrame) {
			t.Fatalf("forged observation count: error %v does not wrap errMalformedFrame", err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("10 refusals of a forged observation count allocated %d bytes", got)
	}
}

// TestCodecAllocCeiling pins the codec's allocation budget: encoding
// is a single pre-sized buffer, decoding allocates only the wire
// structs and their slices. ci.sh runs this in its kernel-smoke step.
func TestCodecAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings hold on plain builds")
	}
	req := codecTestRequest()
	resp := codecTestResponse()
	reqFrame, _ := EncodeInferRequest(req)
	respFrame, _ := EncodeInferResponse(resp)
	for _, tc := range []struct {
		name    string
		ceiling float64
		fn      func()
	}{
		{"EncodeInferRequest", 2, func() { EncodeInferRequest(req) }},
		{"DecodeInferRequest", 8, func() { DecodeInferRequest(reqFrame) }},
		{"EncodeInferResponse", 2, func() { EncodeInferResponse(resp) }},
		{"DecodeInferResponse", 8, func() { DecodeInferResponse(respFrame) }},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got > tc.ceiling {
			t.Errorf("%s allocs = %v, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}

// TestInferBinaryNegotiation drives the server end to end across the
// codec matrix: binary request bodies decode, Accept selects the
// response codec, both renderings agree, and the cache keys the two
// response codecs separately (an Accept for binary can never be served
// a cached JSON body).
func TestInferBinaryNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	url := ts.URL + "/v1/infer"

	var req InferRequest
	if err := json.Unmarshal(inferBody(7), &req); err != nil {
		t.Fatal(err)
	}
	binBody, err := EncodeInferRequest(&req)
	if err != nil {
		t.Fatal(err)
	}

	do := func(body []byte, contentType, accept string) *http.Response {
		t.Helper()
		hreq, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		hreq.Header.Set("Content-Type", contentType)
		if accept != "" {
			hreq.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		return resp
	}

	// JSON request, JSON response: the baseline.
	r1 := do(inferBody(7), "application/json", "")
	var jsonResp InferResponse
	if err := json.Unmarshal(readAll(t, r1), &jsonResp); err != nil || r1.StatusCode != http.StatusOK {
		t.Fatalf("json/json: status %d, err %v", r1.StatusCode, err)
	}

	// Binary request, binary response: same digest, so the solver result
	// is the cached/coalesced one — but the body must re-encode because
	// the response codec differs.
	r2 := do(binBody, ContentTypeBinary, ContentTypeBinary)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("binary/binary: status %d: %s", r2.StatusCode, readAll(t, r2))
	}
	if ct := r2.Header.Get("Content-Type"); ct != ContentTypeBinary {
		t.Errorf("binary response Content-Type = %q", ct)
	}
	if hit := r2.Header.Get("X-Blu-Cache"); hit != "miss" {
		t.Errorf("first binary-accept request was a cache %s; JSON body leaked across codecs", hit)
	}
	binResp, err := DecodeInferResponse(readAll(t, r2))
	if err != nil {
		t.Fatalf("decode binary response: %v", err)
	}
	if !reflect.DeepEqual(*binResp, jsonResp) {
		t.Errorf("codecs disagree:\nbinary %+v\n  json %+v", *binResp, jsonResp)
	}

	// Repeat binary: now a hit in the binary keyspace.
	r3 := do(binBody, ContentTypeBinary, ContentTypeBinary)
	if hit := r3.Header.Get("X-Blu-Cache"); hit != "hit" {
		t.Errorf("second binary request was a cache %s", hit)
	}
	if _, err := DecodeInferResponse(readAll(t, r3)); err != nil {
		t.Errorf("cached binary body corrupt: %v", err)
	}

	// Binary request with no Accept: response falls back to JSON, served
	// from the JSON cache entry.
	r4 := do(binBody, ContentTypeBinary, "")
	if ct := r4.Header.Get("Content-Type"); ct != contentTypeJSON {
		t.Errorf("default response Content-Type = %q", ct)
	}
	var mixed InferResponse
	if err := json.Unmarshal(readAll(t, r4), &mixed); err != nil {
		t.Errorf("binary-request/json-response body: %v", err)
	}
	if hit := r4.Header.Get("X-Blu-Cache"); hit != "hit" {
		t.Errorf("binary request with JSON accept missed the shared JSON cache entry (%s)", hit)
	}

	// Malformed binary body: 400 with a JSON error rendering.
	r5 := do(binBody[:len(binBody)-3], ContentTypeBinary, ContentTypeBinary)
	if r5.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated frame: status %d", r5.StatusCode)
	}
	if ct := r5.Header.Get("Content-Type"); ct != contentTypeJSON {
		t.Errorf("error response Content-Type = %q, errors must stay JSON", ct)
	}
	var eresp ErrorResponse
	if err := json.Unmarshal(readAll(t, r5), &eresp); err != nil || eresp.Error == "" {
		t.Errorf("truncated frame error body unparsable: %v", err)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"blu/internal/access"
	"blu/internal/blueprint"
	"blu/internal/rng"
)

// fuzzSeedFrames builds the seed corpus the way bluload's payload pool
// does — random hidden-terminal truths rendered as measurement
// requests — so the fuzzers start from realistic frames rather than
// discovering the format from zero. The responses are the matching
// truth topologies rendered as solver results.
func fuzzSeedFrames(tb testing.TB) (reqs, resps [][]byte) {
	tb.Helper()
	r := rng.New(0xF022).Split("payloads")
	for k := 0; k < 8; k++ {
		n := 4 + r.Intn(6)
		topo := &blueprint.Topology{N: n}
		for h := 0; h < 1+r.Intn(2); h++ {
			size := 2 + r.Intn(2)
			var set blueprint.ClientSet
			for set.Count() < size {
				set = set.Add(r.Intn(n))
			}
			topo.HTs = append(topo.HTs, blueprint.HiddenTerminal{
				Q:       0.2 + 0.4*r.Float64(),
				Clients: set,
			})
		}
		mw := MeasurementsWire{N: n, P: make([]float64, n)}
		for i := 0; i < n; i++ {
			mw.P[i] = topo.AccessProb(i)
			for j := i + 1; j < n; j++ {
				mw.Pairs = append(mw.Pairs, PairProb{I: i, J: j, P: topo.PairProb(i, j)})
			}
		}
		req := &InferRequest{Measurements: mw, Options: InferOptionsWire{Seed: r.Uint64()}}
		frame, err := EncodeInferRequest(req)
		if err != nil {
			tb.Fatalf("seed request %d: %v", k, err)
		}
		reqs = append(reqs, frame)

		resp := &InferResponse{
			Topology:   TopologyToWire(topo),
			Violation:  r.Float64() * 0.01,
			Converged:  true,
			Starts:     1 + r.Intn(40),
			Iterations: 1 + r.Intn(2000),
		}
		resp.MaxViolation = resp.Violation * 2
		frame, err = EncodeInferResponse(resp)
		if err != nil {
			tb.Fatalf("seed response %d: %v", k, err)
		}
		resps = append(resps, frame)
	}
	return reqs, resps
}

// FuzzDecodeInferRequest hammers the request decoder with mutated
// frames: whatever the bytes, it must never panic, and anything it
// accepts must re-encode to the identical frame (the codec is
// canonical) and agree with the JSON spelling on the server's cache
// digest whenever the payload passes validation.
func FuzzDecodeInferRequest(f *testing.F) {
	reqs, _ := fuzzSeedFrames(f)
	for _, frame := range reqs {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		flip := append([]byte(nil), frame...)
		flip[len(flip)/3] ^= 0x40
		f.Add(flip)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeInferRequest(data)
		if err != nil {
			return
		}
		frame, err := EncodeInferRequest(req)
		if err != nil {
			t.Fatalf("accepted frame fails to re-encode: %v", err)
		}
		again, err := DecodeInferRequest(frame)
		if err != nil {
			t.Fatalf("re-encoded frame fails to decode: %v", err)
		}
		// Byte-level comparison, not DeepEqual: NaN payloads are legal at
		// the codec layer and f64 fields round-trip by bit pattern.
		frame2, err := EncodeInferRequest(again)
		if err != nil || !bytes.Equal(frame, frame2) {
			t.Fatalf("codec is not canonical: second round trip changed the frame (%v)", err)
		}

		m, err := req.Measurements.ToMeasurements()
		if err != nil {
			return // semantically invalid; JSON would reject identically
		}
		jbody, err := json.Marshal(req)
		if err != nil {
			return // non-finite options are unrepresentable in JSON
		}
		var jreq InferRequest
		if err := json.Unmarshal(jbody, &jreq); err != nil {
			t.Fatalf("JSON round trip: %v", err)
		}
		jm, err := jreq.Measurements.ToMeasurements()
		if err != nil {
			t.Fatalf("JSON spelling of a valid request rejected: %v", err)
		}
		if digestInfer(m, req.Options.ToInferOptions()) != digestInfer(jm, jreq.Options.ToInferOptions()) {
			t.Error("binary and JSON spellings digest differently")
		}
	})
}

// FuzzDecodeInferResponse is the response-side twin: no panics, and
// accepted frames are canonical under a decode/encode round trip.
func FuzzDecodeInferResponse(f *testing.F) {
	_, resps := fuzzSeedFrames(f)
	for _, frame := range resps {
		f.Add(frame)
		f.Add(frame[:len(frame)*2/3])
		flip := append([]byte(nil), frame...)
		flip[len(flip)-1] ^= 0x01
		f.Add(flip)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeInferResponse(data)
		if err != nil {
			return
		}
		frame, err := EncodeInferResponse(resp)
		if err != nil {
			t.Fatalf("accepted frame fails to re-encode: %v", err)
		}
		again, err := DecodeInferResponse(frame)
		if err != nil {
			t.Fatalf("re-encoded frame fails to decode: %v", err)
		}
		frame2, err := EncodeInferResponse(again)
		if err != nil || !bytes.Equal(frame, frame2) {
			t.Fatalf("codec is not canonical: second round trip changed the frame (%v)", err)
		}
	})
}

// recordServer is the part of a Server a session record touches: the
// session registry and the result cache.
func recordServer() *Server {
	return &Server{sessions: newSessionStore(maxSessions, windowEpochs), cache: newLRUCache(cacheEntries)}
}

// sessionRecordSeeds encodes two warm sessions over one window of
// two epochs: one carries a warm seed, the other minted keys,
// one with its cached body and one whose body was evicted.
func sessionRecordSeeds() [][]byte {
	win := access.NewWindow(3, windowEpochs)
	for k, ob := range append(htObservations(30, 3), htObservations(20, 7)...) {
		win.Fold(ob.Scheduled, blueprint.NewClientSet(ob.Accessed...))
		if k == 29 {
			win.Advance()
		}
	}
	s := recordServer()
	s.cache.put(0xB1E0, []byte(`{"topology":{"n":3,"hts":[]}}`))
	digest := digestMeasurements(win.Measurements())
	seeded := &session{id: "cell-a", win: win, digest: digest, lastTopo: &blueprint.Topology{N: 3, HTs: []blueprint.HiddenTerminal{
		{Q: 0.3, Clients: blueprint.NewClientSet(0, 1)},
	}}}
	minted := &session{id: "cell-b", win: win, digest: digest, minted: map[uint64]struct{}{0xB1E0: {}, 0x5EED: {}}}
	return [][]byte{s.encodeSessionRecord(seeded), s.encodeSessionRecord(minted)}
}

// FuzzDecodeSessionRecord hammers the session-record decoder, which
// reads snapshot images and handoff imports alike: no input may panic,
// and a record it accepts, put into a fresh server, must encode to the
// same bytes every time and survive a second round trip unchanged.
func FuzzDecodeSessionRecord(f *testing.F) {
	for _, rec := range sessionRecordSeeds() {
		if err := recordServer().installSessionRecord(rec); err != nil {
			f.Fatalf("seed record refused: %v", err)
		}
		f.Add(rec)
		f.Add(rec[:len(rec)/2])
		flip := append([]byte(nil), rec...)
		flip[len(flip)/3] ^= 0x20
		f.Add(flip)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		s := recordServer()
		if s.installSessionRecord(rec) != nil {
			return
		}
		sess := s.sessions.export()[0]
		enc := s.encodeSessionRecord(sess)
		if again := s.encodeSessionRecord(sess); !bytes.Equal(enc, again) {
			t.Fatal("encoding one session twice gave different bytes")
		}
		s2 := recordServer()
		if err := s2.installSessionRecord(enc); err != nil {
			t.Fatalf("re-encoded record refused: %v", err)
		}
		if got := s2.encodeSessionRecord(s2.sessions.export()[0]); !bytes.Equal(got, enc) {
			t.Fatal("record changed across a second round trip")
		}
	})
}

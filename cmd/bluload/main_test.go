package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"blu/internal/fleet"
	"blu/internal/serve"
)

// testPools builds the pool of every mode a run can select.
func testPools(t *testing.T, seed uint64) map[string]*payloadPool {
	t.Helper()
	pools := map[string]*payloadPool{}
	for _, mode := range []struct {
		name  string
		mix   string
		cells int
	}{{"default", "default", 0}, {"observe", "observe", 0}, {"cells", "default", 3}} {
		targets, err := poolTargets(seed, mode.mix, mode.cells)
		if err != nil {
			t.Fatal(err)
		}
		pools[mode.name] = buildPool(seed, false, targets)
		pools[mode.name+"/binary"] = buildPool(seed, true, targets)
	}
	return pools
}

func decodeObserve(t *testing.T, pool *payloadPool, body []byte) *serve.ObserveRequest {
	t.Helper()
	if pool.binaryEp[epObserve] {
		req, err := serve.DecodeObserveRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	var req serve.ObserveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	return &req
}

// TestPoolDeterministic: a pool is a pure function of its seed.
func TestPoolDeterministic(t *testing.T) {
	a, b, other := testPools(t, 7), testPools(t, 7), testPools(t, 8)
	for name := range a {
		if !reflect.DeepEqual(a[name], b[name]) {
			t.Errorf("%s: the same seed built different pools", name)
		}
		if reflect.DeepEqual(a[name], other[name]) {
			t.Errorf("%s: seeds 7 and 8 built the same pool", name)
		}
	}
}

// TestPoolSessionsKeepOneN: every body for one session carries the
// same client count (a daemon answers 409 otherwise), every session
// seals, and every session infer names a session the observes create.
func TestPoolSessionsKeepOneN(t *testing.T) {
	for name, pool := range testPools(t, 7) {
		if strings.HasPrefix(name, "default") {
			if len(pool.byEndpoint[epObserve]) != 0 || len(pool.seedObserve) != 0 {
				t.Errorf("%s: the default mix carries observes", name)
			}
			continue
		}
		ns, sealed := map[string]int{}, map[string]bool{}
		for _, pl := range pool.byEndpoint[epObserve] {
			req := decodeObserve(t, pool, pl.body)
			if n, ok := ns[req.Session]; ok && n != req.N {
				t.Errorf("%s: session %s carries n=%d and n=%d", name, req.Session, n, req.N)
			}
			ns[req.Session] = req.N
			sealed[req.Session] = sealed[req.Session] || req.Seal
		}
		if len(ns) < 3 {
			t.Errorf("%s: observes feed %d sessions", name, len(ns))
		}
		for id := range ns {
			if !sealed[id] {
				t.Errorf("%s: session %s never seals", name, id)
			}
		}
		if len(pool.seedObserve) != len(ns) {
			t.Errorf("%s: %d pre-seeds for %d sessions", name, len(pool.seedObserve), len(ns))
		}
		for _, pl := range pool.byEndpoint[epInfer] {
			var req serve.InferRequest
			if err := json.Unmarshal(pl.body, &req); err != nil {
				t.Fatal(err)
			}
			if _, ok := ns[req.Session]; !ok {
				t.Errorf("%s: infer names session %q that no observe creates", name, req.Session)
			}
		}
	}
}

// TestCellsPoolRoutesEveryBody: in -cells mode every body carries its
// ?cell= routing query, and a session's bodies route to its own cell.
func TestCellsPoolRoutesEveryBody(t *testing.T) {
	pool := testPools(t, 7)["cells"]
	for ep, pls := range pool.byEndpoint {
		if len(pls) == 0 {
			t.Errorf("/v1/%s: no payloads", epNames[ep])
		}
		for _, pl := range pls {
			cell, ok := strings.CutPrefix(pl.query, "?cell=")
			if !ok || cell == "" {
				t.Fatalf("/v1/%s body routed by %q", epNames[ep], pl.query)
			}
			var session string
			switch ep {
			case epObserve:
				session = decodeObserve(t, pool, pl.body).Session
			case epInfer:
				var req serve.InferRequest
				if err := json.Unmarshal(pl.body, &req); err != nil {
					t.Fatal(err)
				}
				session = req.Session
			default:
				continue
			}
			if session != fleet.SessionName(cell) {
				t.Errorf("/v1/%s for session %s routed to cell %s", epNames[ep], session, cell)
			}
		}
	}
}

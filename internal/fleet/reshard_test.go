package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"blu/internal/blueprint"
	"blu/internal/serve"
)

// cellN gives each cell index a distinct session shape. The result
// cache is digest-keyed and shared across a shard's sessions, so
// identically warmed sessions would all answer from one entry — and
// dropping any of them would invalidate the rest.
func cellN(i int) int { return 3 + i%4 }

// warmCell feeds one cell's canonical session through the router to a
// steady cache hit, returning the canonical digest and the hit body.
func warmCell(t *testing.T, routerURL, cell string, variant int) (digest string, hitBody []byte) {
	t.Helper()
	req := borderBatch(cellN(variant), variant%3, 120)
	req.Session = SessionName(cell)
	st, body, _ := postJSON(t, fmt.Sprintf("%s/v1/observe?cell=%s", routerURL, cell), req)
	if st != http.StatusOK {
		t.Fatalf("observe %s: %d %s", cell, st, body)
	}
	var oresp serve.ObserveResponse
	if err := json.Unmarshal(body, &oresp); err != nil {
		t.Fatal(err)
	}
	inferReq := map[string]any{"session": SessionName(cell)}
	url := fmt.Sprintf("%s/v1/infer?cell=%s", routerURL, cell)
	// The warm-start cache key reaches its fixed point on the second
	// infer; the third is the byte-identity target.
	for i := 0; i < 2; i++ {
		if st, body, _ := postJSON(t, url, inferReq); st != http.StatusOK {
			t.Fatalf("infer %s: %d %s", cell, st, body)
		}
	}
	st, hit, h := postJSON(t, url, inferReq)
	if st != http.StatusOK || h.Get("X-Blu-Cache") != "hit" {
		t.Fatalf("infer %s not a steady hit: status %d cache %q", cell, st, h.Get("X-Blu-Cache"))
	}
	return oresp.Digest, hit
}

// cellDigest reads a cell session's digest without moving it (empty
// observe folds nothing).
func cellDigest(t *testing.T, routerURL, cell string, n int) string {
	t.Helper()
	req := serve.ObserveRequest{Session: SessionName(cell), N: n}
	st, body, _ := postJSON(t, fmt.Sprintf("%s/v1/observe?cell=%s", routerURL, cell), req)
	if st != http.StatusOK {
		t.Fatalf("digest probe %s: %d %s", cell, st, body)
	}
	var resp serve.ObserveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Digest
}

// TestReshardAddUnderLoad is the acceptance test: add a 4th shard to a
// serving 3-shard fleet while concurrent clients drive every cell.
// Exactly the ring-predicted cell set moves, moved sessions answer
// their next session-keyed infer from the handed-off state (digest
// equal to pre-move, cache hit byte-identical), and unmoved cells keep
// byte-identical cache hits throughout.
func TestReshardAddUnderLoad(t *testing.T) {
	dir, err := DefaultDirectory(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	l, err := StartLocal(LocalConfig{Shards: 3, Directory: dir, Serve: serve.Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer drainLocal(t, l)

	preDigest := map[string]string{}
	preBody := map[string][]byte{}
	for i, cell := range dir.CellIDs() {
		preDigest[cell], preBody[cell] = warmCell(t, l.RouterAddr, cell, i)
	}

	// The prediction the reshard must match exactly.
	names3 := []string{ShardName(0), ShardName(1), ShardName(2)}
	old := NewRing(0, names3...)
	next := old.Add(ShardName(3))
	var predicted []string
	for _, cell := range dir.CellIDs() {
		if old.Owner(cell) != next.Owner(cell) {
			predicted = append(predicted, cell)
		}
	}
	if len(predicted) == 0 || len(predicted) == len(dir.Cells) {
		t.Fatalf("degenerate prediction %v", predicted)
	}

	// The 4th shard boots with the post-reshard membership and the
	// existing peers, listening before the admin call names it.
	sh3, _, err := NewShard(ShardConfig{
		Name:       ShardName(3),
		ShardNames: append(append([]string(nil), names3...), ShardName(3)),
		Directory:  dir,
		Serve:      serve.Config{Workers: 2},
		Peers:      l.ShardAddrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr3, err := sh3.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = sh3.Drain(ctx)
	}()

	// Concurrent digest-neutral load on every cell across the reshard:
	// empty observes and session infers, tolerating only OK and the
	// 307 fence.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var loadMu sync.Mutex
	var loadErr error
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				ci := (w + j) % len(dir.Cells)
				cell := dir.Cells[ci].ID
				var body []byte
				if j%2 == 0 {
					body, _ = json.Marshal(serve.ObserveRequest{Session: SessionName(cell), N: cellN(ci)})
				} else {
					body, _ = json.Marshal(map[string]any{"session": SessionName(cell)})
				}
				path := map[bool]string{true: "observe", false: "infer"}[j%2 == 0]
				res, err := http.Post(fmt.Sprintf("%s/v1/%s?cell=%s", l.RouterAddr, path, cell), "application/json", bytes.NewReader(body))
				if err != nil {
					continue
				}
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
				if res.StatusCode != http.StatusOK && res.StatusCode != http.StatusTemporaryRedirect {
					loadMu.Lock()
					if loadErr == nil {
						loadErr = fmt.Errorf("load %s %s: status %d", path, cell, res.StatusCode)
					}
					loadMu.Unlock()
					return
				}
			}
		}(w)
	}

	st, body, _ := postJSON(t, l.RouterAddr+"/v1/fleet/reshard", ReshardRequest{
		Action: "add", Name: ShardName(3), URL: "http://" + addr3,
	})
	if st != http.StatusOK {
		t.Fatalf("reshard: status %d: %s", st, body)
	}
	var resp ReshardResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if loadErr != nil {
		t.Fatalf("load during reshard: %v", loadErr)
	}

	sort.Strings(predicted)
	if fmt.Sprint(resp.Moved) != fmt.Sprint(predicted) {
		t.Fatalf("moved %v, ring predicts %v", resp.Moved, predicted)
	}

	movedSet := map[string]bool{}
	for _, c := range resp.Moved {
		movedSet[c] = true
	}
	for i, cell := range dir.CellIDs() {
		if got := cellDigest(t, l.RouterAddr, cell, cellN(i)); got != preDigest[cell] {
			t.Errorf("cell %s digest %s after reshard, want %s (moved=%v)", cell, got, preDigest[cell], movedSet[cell])
		}
		st, body, h := postJSON(t, fmt.Sprintf("%s/v1/infer?cell=%s", l.RouterAddr, cell),
			map[string]any{"session": SessionName(cell)})
		if st != http.StatusOK || h.Get("X-Blu-Cache") != "hit" || !bytes.Equal(body, preBody[cell]) {
			t.Errorf("cell %s post-reshard infer: status %d cache %q identical=%v (moved=%v)",
				cell, st, h.Get("X-Blu-Cache"), bytes.Equal(body, preBody[cell]), movedSet[cell])
		}
	}

	// Moved sessions live on the gainer now — and only there.
	for _, cell := range resp.Moved {
		if _, _, _, ok := sh3.Server().SessionBlueprint(SessionName(cell)); !ok {
			t.Errorf("moved cell %s has no session on the new shard", cell)
		}
	}
	for _, sh := range l.Shards {
		for _, cell := range resp.Moved {
			if _, _, _, ok := sh.Server().SessionBlueprint(SessionName(cell)); ok {
				t.Errorf("moved cell %s still live on loser %s", cell, sh.Name())
			}
		}
	}
	// The new shard's own fleet view agrees with the router.
	for _, cell := range resp.Moved {
		if !sh3.Owns(cell) {
			t.Errorf("shard-3's ring does not own moved cell %s after membership broadcast", cell)
		}
	}
}

// TestReshardRemoveShard shrinks the fleet: the removed shard's cells
// (and only those) move to survivors with state intact, and the loser
// drops what it handed off.
func TestReshardRemoveShard(t *testing.T) {
	dir, err := DefaultDirectory(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	l, err := StartLocal(LocalConfig{Shards: 3, Directory: dir, Serve: serve.Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer drainLocal(t, l)

	preDigest := map[string]string{}
	for i, cell := range dir.CellIDs() {
		preDigest[cell], _ = warmCell(t, l.RouterAddr, cell, i)
	}

	victim := l.Shards[2]
	victimCells := victim.OwnedCells()
	if len(victimCells) == 0 {
		t.Skip("ring assigned shard-2 no cells in this layout")
	}
	resp, err := l.Router.Reshard(context.Background(), ReshardRequest{Action: "remove", Name: victim.Name()})
	if err != nil {
		t.Fatalf("reshard remove: %v", err)
	}
	sort.Strings(victimCells)
	if fmt.Sprint(resp.Moved) != fmt.Sprint(victimCells) {
		t.Fatalf("moved %v, want exactly the victim's cells %v", resp.Moved, victimCells)
	}
	if len(resp.Shards) != 2 {
		t.Fatalf("fleet is %v after remove", resp.Shards)
	}

	for i, cell := range dir.CellIDs() {
		if got := cellDigest(t, l.RouterAddr, cell, cellN(i)); got != preDigest[cell] {
			t.Errorf("cell %s digest %s after remove, want %s", cell, got, preDigest[cell])
		}
	}
	for _, cell := range victimCells {
		if _, _, _, ok := victim.Server().SessionBlueprint(SessionName(cell)); ok {
			t.Errorf("removed shard still holds session for %s", cell)
		}
	}

	// Validation: duplicate add and unknown remove are refused without
	// touching the ring.
	if _, err := l.Router.Reshard(context.Background(), ReshardRequest{Action: "add", Name: ShardName(0), URL: "http://x"}); err == nil {
		t.Fatal("re-adding a member shard succeeded")
	}
	if _, err := l.Router.Reshard(context.Background(), ReshardRequest{Action: "remove", Name: "shard-9"}); err == nil {
		t.Fatal("removing an unknown shard succeeded")
	}
}

// TestRouterMoving307 pins the fence semantics: a cell mid-move
// answers 307 with Retry-After and no Location, and the fence lifting
// restores normal relaying.
func TestRouterMoving307(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer backend.Close()
	rt, err := NewRouter(RouterConfig{
		Shards:    map[string]string{"shard-0": backend.URL},
		Directory: testDirectory(),
	})
	if err != nil {
		t.Fatal(err)
	}

	rt.mu.Lock()
	rt.moving["cell-0"] = true
	rt.mu.Unlock()

	req := httptest.NewRequest(http.MethodPost, "/v1/infer?cell=cell-0", bytes.NewReader([]byte(`{}`)))
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTemporaryRedirect {
		t.Fatalf("fenced cell answered %d, want 307", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("307 without Retry-After")
	}
	if rec.Header().Get("Location") != "" {
		t.Fatalf("307 carries Location %q; clients must retry the same URL", rec.Header().Get("Location"))
	}

	rt.mu.Lock()
	delete(rt.moving, "cell-0")
	rt.mu.Unlock()
	rec = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer?cell=cell-0", bytes.NewReader([]byte(`{}`))))
	if rec.Code != http.StatusOK {
		t.Fatalf("unfenced cell answered %d", rec.Code)
	}
	// The fence's bookkeeping must drain with the requests.
	rt.mu.RLock()
	n := rt.inflight["cell-0"]
	rt.mu.RUnlock()
	if n != 0 {
		t.Fatalf("inflight count %d after relay finished", n)
	}
}

// TestHandoffImportErrorIsJSON: a shard refusing an imported record
// answers 422 with a JSON error body. The refusal here is the digest
// gate, whose message quotes the session id — text that a hand-built
// JSON string would splice in unescaped.
func TestHandoffImportErrorIsJSON(t *testing.T) {
	sh, _, err := NewShard(ShardConfig{
		Name:       "shard-0",
		ShardNames: []string{"shard-0"},
		Directory:  testDirectory(),
		Serve:      serve.Config{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Drain(context.Background())
	id := SessionName("cell-0")
	seed := &blueprint.Topology{N: 3, HTs: []blueprint.HiddenTerminal{{Q: 0.4, Clients: blueprint.NewClientSet(0)}}}
	if _, err := sh.Server().SeedSessionBlueprint(id, 3, seed); err != nil {
		t.Fatal(err)
	}
	rec := append([]byte(nil), sh.Server().ExportSessionRecords(nil)[0].Record...)
	rec[2+len(id)] ^= 1 // the recorded digest follows version, id length and id

	body, err := json.Marshal(HandoffRequest{Mode: "import", Sessions: []SessionWire{{ID: id, Record: rec}}})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	sh.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/fleet/handoff", bytes.NewReader(body)))
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("import answered %d, want 422: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	var er struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("error body is not {\"error\": ...} JSON (%v): %s", err, w.Body)
	}
}

// TestAdminEndpointsRejectTrailingBytes: the exchange, handoff and
// reshard endpoints decode strictly. A lenient decoder stopped at the
// first JSON value, so a membership handoff followed by junk was
// applied.
func TestAdminEndpointsRejectTrailingBytes(t *testing.T) {
	sh, _, err := NewShard(ShardConfig{
		Name:       "shard-0",
		ShardNames: []string{"shard-0"},
		Directory:  testDirectory(),
		Serve:      serve.Config{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Drain(context.Background())
	rt, err := NewRouter(RouterConfig{Shards: map[string]string{"shard-0": "http://127.0.0.1:1"}, Directory: testDirectory()})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		h          http.Handler
		path, body string
	}{
		{sh.Handler(), "/v1/fleet/handoff", `{"mode":"membership","shards":["shard-0","shard-9"]}junk`},
		{sh.Handler(), "/v1/fleet/exchange", `{"from":"shard-1","reports":[]}junk`},
		{rt.Handler(), "/v1/fleet/reshard", `{"action":"remove","name":"shard-0"}junk`},
	} {
		w := httptest.NewRecorder()
		c.h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s answered %d, want 400: %s", c.path, w.Code, w.Body)
		}
	}
	if nodes := sh.ring.Load().Nodes(); len(nodes) != 1 {
		t.Errorf("rejected membership handoff was applied: ring %v", nodes)
	}
}

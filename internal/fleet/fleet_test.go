package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"blu/internal/blueprint"
	"blu/internal/serve"
)

// Handler returns the router's HTTP surface.
func (rt *Router) Handler() http.Handler { return rt.mux }

// UpdateShard re-targets a shard name at a new base URL (a restarted
// shard comes back on a fresh port; its ring assignment is unchanged
// because the name is).
func (rt *Router) UpdateShard(name, url string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.shards[name] = url
}

// Server exposes the wrapped serving core.
func (sh *Shard) Server() *serve.Server { return sh.srv }

// Handler returns the shard's full HTTP surface: every serve endpoint
// plus the fleet exchange/blueprint endpoints.
func (sh *Shard) Handler() http.Handler { return sh.mux }

// Abort simulates kill -9: the listener dies mid-flight and the
// serving core tears down without flushing (serve.Server.Abort).
func (sh *Shard) Abort() {
	sh.stopExchange()
	if sh.httpSrv != nil {
		sh.httpSrv.Close()
	}
	sh.srv.Abort()
}

// testDirectory is a hand-built 3-cell fleet with chained borders:
// global UE 2 is audible in cell-0 and cell-1, global UE 4 in cell-1
// and cell-2.
func testDirectory() Directory {
	return Directory{Cells: []CellInfo{
		{ID: "cell-0", Members: []int{0, 1, 2}},
		{ID: "cell-1", Members: []int{2, 3, 4}},
		{ID: "cell-2", Members: []int{4, 5, 6}},
	}}
}

func postJSON(t *testing.T, url string, body any) (int, []byte, http.Header) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, data, res.Header
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer res.Body.Close()
	if v != nil {
		if err := json.NewDecoder(res.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return res.StatusCode
}

// borderBatch synthesizes one sealed observe batch over n clients where
// client `blocked` fails CCA in 40% of subframes and everyone else
// always accesses — the signature of one hidden terminal with q=0.4
// blocking exactly that client.
func borderBatch(n, blocked, rounds int) serve.ObserveRequest {
	sched := make([]int, n)
	for i := range sched {
		sched[i] = i
	}
	req := serve.ObserveRequest{N: n, Seal: true}
	for i := 0; i < rounds; i++ {
		acc := make([]int, 0, n)
		for c := 0; c < n; c++ {
			if c == blocked && i%5 < 2 {
				continue
			}
			acc = append(acc, c)
		}
		req.Observations = append(req.Observations, serve.ObservationWire{Scheduled: sched, Accessed: acc})
	}
	return req
}

func drainLocal(t *testing.T, l *Local) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := l.Drain(ctx); err != nil {
		t.Errorf("fleet drain: %v", err)
	}
}

// TestExchangeFoldThenDedup drives the exchange protocol on a
// single-shard fleet owning every cell: round one folds cell-0's border
// hidden terminal into cell-1's warm-start seed, round two recognizes
// the same knowledge and counts a dedup instead of folding again.
func TestExchangeFoldThenDedup(t *testing.T) {
	dir := testDirectory()
	sh, _, err := NewShard(ShardConfig{
		Name:       "shard-0",
		ShardNames: []string{"shard-0"},
		Directory:  dir,
		Serve:      serve.Config{Workers: 2, QueueDepth: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sh.Drain(ctx)
	}()

	// cell-0 inferred an HT blocking its border member (global 2, local
	// index 2); install it as the session blueprint.
	seed := &blueprint.Topology{N: 3, HTs: []blueprint.HiddenTerminal{
		{Q: 0.4, Clients: blueprint.NewClientSet(2)},
	}}
	if _, err := sh.Server().SeedSessionBlueprint(SessionName("cell-0"), 3, seed); err != nil {
		t.Fatal(err)
	}

	stats, err := sh.ExchangeOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Published == 0 || stats.Folded == 0 {
		t.Fatalf("round 1: published=%d folded=%d, want both > 0", stats.Published, stats.Folded)
	}
	// cell-1 now carries the seeded HT over its local indexing.
	topo, _, _, ok := sh.Server().SessionBlueprint(SessionName("cell-1"))
	if !ok || topo == nil {
		t.Fatal("cell-1 has no seeded blueprint after exchange")
	}
	cell1, _ := dir.Cell("cell-1")
	want := cell1.LocalSet([]int{2})
	found := false
	for _, ht := range topo.HTs {
		if ht.Clients == want && ht.Q == 0.4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("cell-1 seed %+v lacks translated HT on %v", topo.HTs, want)
	}

	stats2, err := sh.ExchangeOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Deduped == 0 {
		t.Fatalf("round 2: deduped=%d, want > 0 (stats %+v)", stats2.Deduped, stats2)
	}
	if stats2.Folded != 0 {
		t.Fatalf("round 2 re-folded already-known reports: %+v", stats2)
	}
}

// TestRouterRoutesAndRelaysByteIdentically checks the routing tier:
// requests reach exactly the owning shard, responses come back
// byte-identical through any router instance, and the cache header is
// preserved end to end.
func TestRouterRoutesAndRelaysByteIdentically(t *testing.T) {
	dir := testDirectory()
	l, err := StartLocal(LocalConfig{Shards: 2, Directory: dir, Serve: serve.Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer drainLocal(t, l)

	infer := map[string]any{
		"measurements": map[string]any{
			"n": 3,
			"p": []float64{0.95, 0.6, 0.6},
			"pairs": []map[string]any{
				{"i": 1, "j": 2, "p": 0.45},
			},
		},
		"options": map[string]any{"seed": 7},
	}
	st, body1, h1 := postJSON(t, l.RouterAddr+"/v1/infer?cell=cell-0", infer)
	if st != http.StatusOK {
		t.Fatalf("infer via router: status %d: %s", st, body1)
	}
	if h1.Get("X-Blu-Cache") != "miss" {
		t.Fatalf("first infer cache header %q", h1.Get("X-Blu-Cache"))
	}
	st, body2, h2 := postJSON(t, l.RouterAddr+"/v1/infer?cell=cell-0", infer)
	if st != http.StatusOK || h2.Get("X-Blu-Cache") != "hit" {
		t.Fatalf("second infer: status %d cache %q", st, h2.Get("X-Blu-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cached infer response differs from the original")
	}

	// A second, independent router over the same shard set returns the
	// same bytes — the cache lives on the shard, not in the router.
	rt2, err := NewRouter(RouterConfig{Shards: l.ShardAddrs, Directory: dir, LocalMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := rt2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close(context.Background())
	st, body3, h3 := postJSON(t, "http://"+addr2+"/v1/infer?cell=cell-0", infer)
	if st != http.StatusOK || h3.Get("X-Blu-Cache") != "hit" {
		t.Fatalf("infer via second router: status %d cache %q", st, h3.Get("X-Blu-Cache"))
	}
	if !bytes.Equal(body1, body3) {
		t.Fatal("response differs across entry routers")
	}

	// Observation state lands only on the owning shard.
	obsReq := borderBatch(3, 2, 50)
	obsReq.Session = SessionName("cell-0")
	st, body, _ := postJSON(t, l.RouterAddr+"/v1/observe?cell=cell-0", obsReq)
	if st != http.StatusOK {
		t.Fatalf("observe via router: status %d: %s", st, body)
	}
	ownerCount := 0
	for _, sh := range l.Shards {
		if _, _, _, ok := sh.Server().SessionBlueprint(SessionName("cell-0")); ok {
			ownerCount++
			if !sh.Owns("cell-0") {
				t.Fatalf("session created on non-owning shard %s", sh.Name())
			}
		}
	}
	if ownerCount != 1 {
		t.Fatalf("session lives on %d shards, want exactly 1", ownerCount)
	}

	// A request without a cell is a routing error, not a guess.
	if st, _, _ := postJSON(t, l.RouterAddr+"/v1/infer", infer); st != http.StatusBadRequest {
		t.Fatalf("cell-less request: status %d, want 400", st)
	}
}

// TestFleetEndToEnd drives the full loop through the router on a
// 3-shard fleet: per-cell observe streams, session-keyed inference,
// exchange rounds until dedup, and the merged global map.
func TestFleetEndToEnd(t *testing.T) {
	dir := testDirectory()
	l, err := StartLocal(LocalConfig{Shards: 3, Directory: dir, Serve: serve.Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer drainLocal(t, l)

	// Each cell observes its lowest-index border member blocked at 40%.
	blockedLocal := map[string]int{"cell-0": 2, "cell-1": 0, "cell-2": 0}
	for cell, blocked := range blockedLocal {
		req := borderBatch(3, blocked, 200)
		req.Session = SessionName(cell)
		st, body, _ := postJSON(t, fmt.Sprintf("%s/v1/observe?cell=%s", l.RouterAddr, cell), req)
		if st != http.StatusOK {
			t.Fatalf("observe %s: status %d: %s", cell, st, body)
		}
	}
	for cell := range blockedLocal {
		inferReq := map[string]any{"session": SessionName(cell)}
		st, body, _ := postJSON(t, fmt.Sprintf("%s/v1/infer?cell=%s", l.RouterAddr, cell), inferReq)
		if st != http.StatusOK {
			t.Fatalf("infer %s: status %d: %s", cell, st, body)
		}
		var resp serve.InferResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Topology.HTs) == 0 {
			t.Fatalf("infer %s found no hidden terminals", cell)
		}
	}

	// Exchange until knowledge stops moving: round 1 folds, round 2
	// must dedup the re-received border reports.
	var folded, deduped int
	for round := 0; round < 2; round++ {
		folded, deduped = 0, 0
		for _, sh := range l.Shards {
			stats, err := sh.ExchangeOnce(context.Background())
			if err != nil {
				t.Fatalf("exchange on %s: %v", sh.Name(), err)
			}
			folded += stats.Folded
			deduped += stats.Deduped
		}
	}
	if deduped == 0 {
		t.Fatalf("second exchange round deduped nothing (folded=%d)", folded)
	}

	var m MapResponse
	if st := getJSON(t, l.RouterAddr+"/v1/fleet/map", &m); st != http.StatusOK {
		t.Fatalf("fleet map: status %d", st)
	}
	if m.Shards != 3 || len(m.Unreached) != 0 {
		t.Fatalf("map shards=%d unreached=%v", m.Shards, m.Unreached)
	}
	if len(m.Cells) != 3 {
		t.Fatalf("map covers %d cells", len(m.Cells))
	}
	for _, c := range m.Cells {
		if c.Missing {
			t.Fatalf("cell %s missing from map", c.Cell)
		}
	}
	if len(m.HTs) == 0 {
		t.Fatal("merged map has no hidden terminals")
	}
	// Border UE 2 is blocked in both cell-0 and cell-1; their HTs share
	// the global client set, so the merge must have collapsed entries.
	if m.Merged == 0 {
		t.Fatal("map merged no cross-cell duplicates")
	}
	for _, ht := range m.HTs {
		for _, g := range ht.Clients {
			if g < 0 || g > 6 {
				t.Fatalf("merged HT carries non-global client id %d", g)
			}
		}
	}
}

// TestFleetKillShardRecovery is the crash-consistency smoke: one shard
// of three dies abruptly (kill -9 semantics via Abort) under concurrent
// load, restarts from its PR-8 state dir under the same ring name, and
// comes back digest-identical — while the surviving shards' caches keep
// answering byte-identically throughout.
func TestFleetKillShardRecovery(t *testing.T) {
	dir := testDirectory()
	state := t.TempDir()
	serveCfg := serve.Config{
		Workers:          2,
		SnapshotInterval: 50 * time.Millisecond,
		WALSyncInterval:  time.Millisecond,
	}
	l, err := StartLocal(LocalConfig{Shards: 3, Directory: dir, StateDir: state, Serve: serveCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer drainLocal(t, l)

	// Feed every cell and remember each session's canonical digest.
	digests := map[string]string{}
	for _, cell := range dir.CellIDs() {
		req := borderBatch(3, 1, 120)
		req.Session = SessionName(cell)
		st, body, _ := postJSON(t, fmt.Sprintf("%s/v1/observe?cell=%s", l.RouterAddr, cell), req)
		if st != http.StatusOK {
			t.Fatalf("observe %s: %d %s", cell, st, body)
		}
		var resp serve.ObserveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		digests[cell] = resp.Digest
	}

	victim := l.Shards[0]
	victimCells := victim.OwnedCells()
	if len(victimCells) == 0 {
		t.Skip("ring assigned shard-0 no cells in this layout")
	}
	// A survivor-owned probe session outside the cell:* namespace: its
	// warm start is never touched by exchange, so its cache entry must
	// stay byte-identical across the victim's crash.
	var probeCell string
	for _, c := range dir.CellIDs() {
		if !victim.Owns(c) {
			probeCell = c
			break
		}
	}
	if probeCell == "" {
		t.Skip("shard-0 owns every cell in this layout")
	}
	probe := "probe:" + probeCell
	preq := borderBatch(3, 0, 80)
	preq.Session = probe
	if st, body, _ := postJSON(t, fmt.Sprintf("%s/v1/observe?cell=%s", l.RouterAddr, probeCell), preq); st != http.StatusOK {
		t.Fatalf("probe observe: %d %s", st, body)
	}
	// Session inference warm-starts from the session's last blueprint,
	// which is itself updated by each infer — the cache key reaches its
	// fixed point on the second request, so the third must be a hit.
	inferReq := map[string]any{"session": probe}
	probeURL := fmt.Sprintf("%s/v1/infer?cell=%s", l.RouterAddr, probeCell)
	if st, body, _ := postJSON(t, probeURL, inferReq); st != http.StatusOK {
		t.Fatalf("probe infer: %d %s", st, body)
	}
	st, probeBody, _ := postJSON(t, probeURL, inferReq)
	if st != http.StatusOK {
		t.Fatalf("probe infer (2): %d %s", st, probeBody)
	}
	if st, body, h := postJSON(t, probeURL, inferReq); st != http.StatusOK || h.Get("X-Blu-Cache") != "hit" || !bytes.Equal(body, probeBody) {
		t.Fatalf("probe infer not cached before crash: status %d cache %q", st, h.Get("X-Blu-Cache"))
	}

	// Let the WAL sync and a snapshot land so the kill has durable state
	// to recover.
	time.Sleep(200 * time.Millisecond)

	// Concurrent survivor load across the crash (the -race exercise).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				req := borderBatch(3, 0, 4)
				req.Session = fmt.Sprintf("load-%d:%s", i, probeCell)
				buf, _ := json.Marshal(req)
				res, err := http.Post(fmt.Sprintf("%s/v1/observe?cell=%s", l.RouterAddr, probeCell), "application/json", bytes.NewReader(buf))
				if err == nil {
					io.Copy(io.Discard, res.Body)
					res.Body.Close()
				}
			}
		}(i)
	}

	victim.Abort()

	// Restart under the same name and state dir; re-wire URLs.
	restarted, stats, err := NewShard(ShardConfig{
		Name:       victim.Name(),
		ShardNames: []string{ShardName(0), ShardName(1), ShardName(2)},
		Directory:  dir,
		Serve: func() serve.Config {
			c := serveCfg
			c.StateDir = state + "/" + victim.Name()
			return c
		}(),
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	l.Shards[0] = restarted
	addr, err := restarted.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.ShardAddrs[restarted.Name()] = "http://" + addr
	l.Router.UpdateShard(restarted.Name(), "http://"+addr)
	for _, sh := range l.Shards[1:] {
		sh.SetPeer(restarted.Name(), "http://"+addr)
	}
	for n, u := range l.ShardAddrs {
		if n != restarted.Name() {
			restarted.SetPeer(n, u)
		}
	}
	if stats == nil || stats.SnapshotRecords+stats.WALReplayed == 0 {
		t.Fatalf("restart recovered nothing from the state dir: %+v", stats)
	}

	close(stop)
	wg.Wait()

	// The victim's cells answer with their pre-kill digests (an empty
	// observe batch folds nothing and echoes the canonical digest).
	for _, cell := range victimCells {
		req := serve.ObserveRequest{Session: SessionName(cell), N: 3}
		st, body, _ := postJSON(t, fmt.Sprintf("%s/v1/observe?cell=%s", l.RouterAddr, cell), req)
		if st != http.StatusOK {
			t.Fatalf("post-restart probe %s: %d %s", cell, st, body)
		}
		var resp serve.ObserveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Digest != digests[cell] {
			t.Fatalf("cell %s digest %s after restart, want %s", cell, resp.Digest, digests[cell])
		}
	}

	// Survivor cache: still a hit, still the same bytes.
	st, body, h := postJSON(t, probeURL, inferReq)
	if st != http.StatusOK {
		t.Fatalf("probe infer after crash: %d %s", st, body)
	}
	if h.Get("X-Blu-Cache") != "hit" {
		t.Fatalf("survivor cache lost its entry across the crash: %q", h.Get("X-Blu-Cache"))
	}
	if !bytes.Equal(body, probeBody) {
		t.Fatal("survivor infer bytes changed across the crash")
	}
}

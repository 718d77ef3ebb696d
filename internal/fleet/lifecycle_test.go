package fleet

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"blu/internal/blueprint"
	"blu/internal/serve"
)

// TestShardCloseWithWedgedPeer pins the exchange-loop lifecycle fix: a
// shard whose peer accepts connections but never answers must still
// drain promptly, because stopExchange cancels the shard context the
// in-flight exchange round is posting under.
func TestShardCloseWithWedgedPeer(t *testing.T) {
	wedgedHit := make(chan struct{})
	releaseWedged := make(chan struct{})
	var once sync.Once
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(wedgedHit) })
		<-releaseWedged
	}))
	defer wedged.Close()
	defer close(releaseWedged)

	sh, _, err := NewShard(ShardConfig{
		Name:             "shard-0",
		ShardNames:       []string{"shard-0", "shard-1"},
		Directory:        testDirectory(),
		Serve:            serve.Config{Workers: 2},
		Peers:            map[string]string{"shard-1": wedged.URL},
		ExchangeInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// cell-1 (owned by shard-0) has a blueprint blocking its border
	// member with cell-0 (owned by the wedged shard-1), so every
	// exchange round owes shard-1 a report and wedges on it.
	seed := &blueprint.Topology{N: 3, HTs: []blueprint.HiddenTerminal{
		{Q: 0.4, Clients: blueprint.NewClientSet(0)},
	}}
	if _, err := sh.Server().SeedSessionBlueprint(SessionName("cell-1"), 3, seed); err != nil {
		t.Fatal(err)
	}

	select {
	case <-wedgedHit:
	case <-time.After(5 * time.Second):
		t.Fatal("exchange loop never reached the wedged peer")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := sh.Drain(ctx); err != nil {
		t.Fatalf("drain with wedged peer: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain took %v with a wedged peer; the exchange round is not honoring shutdown", elapsed)
	}
}

// TestRouterRelayErrorStatus pins the relay error taxonomy: a shard
// that exceeds the relay timeout is a 504, a shard nothing listens on
// is a 502 — different operational problems, different statuses.
func TestRouterRelayErrorStatus(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(500 * time.Millisecond)
	}))
	defer slow.Close()

	// A bound-then-closed port: connection refused, not a timeout.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	cases := []struct {
		name  string
		shard string
		want  int
	}{
		{"upstream timeout", slow.URL, http.StatusGatewayTimeout},
		{"dead shard", deadURL, http.StatusBadGateway},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := NewRouter(RouterConfig{
				Shards:    map[string]string{"shard-0": tc.shard},
				Directory: testDirectory(),
			})
			if err != nil {
				t.Fatal(err)
			}
			rt.client.Timeout = 100 * time.Millisecond
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/infer?cell=cell-0", strings.NewReader(`{}`))
			rt.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Fatalf("relay to %s answered %d, want %d: %s", tc.shard, rec.Code, tc.want, rec.Body.String())
			}
		})
	}
}

// TestRouterRelayHeaders pins relay byte-identity at the header level:
// everything the shard emits crosses the router except hop-by-hop
// headers — including the binary codec's Content-Type on an error
// path, multi-valued headers, and headers serve does not emit today.
func TestRouterRelayHeaders(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set("Content-Type", serve.ContentTypeBinary)
		h.Set("X-Blu-Cache", "hit")
		h.Add("X-Custom-Multi", "first")
		h.Add("X-Custom-Multi", "second")
		h.Set("Keep-Alive", "timeout=5") // hop-by-hop: must not cross
		w.WriteHeader(http.StatusUnprocessableEntity)
		w.Write([]byte{0x01, 0x02, 0x03})
	}))
	defer backend.Close()

	rt, err := NewRouter(RouterConfig{
		Shards:    map[string]string{"shard-0": backend.URL},
		Directory: testDirectory(),
	})
	if err != nil {
		t.Fatal(err)
	}

	direct, err := http.Post(backend.URL+"/v1/infer?cell=cell-0", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Body.Close()

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer?cell=cell-0", strings.NewReader(`{}`)))
	if rec.Code != direct.StatusCode {
		t.Fatalf("relayed status %d, direct %d", rec.Code, direct.StatusCode)
	}
	if !bytes.Equal(rec.Body.Bytes(), []byte{0x01, 0x02, 0x03}) {
		t.Fatalf("relayed body %v", rec.Body.Bytes())
	}

	// Every end-to-end header the shard emitted must cross verbatim
	// (Date excepted: each hop stamps its own).
	for k, want := range direct.Header {
		if hopByHopHeaders[k] || k == "Date" {
			continue
		}
		got := rec.Header().Values(k)
		if len(got) != len(want) {
			t.Errorf("header %s: relayed %v, direct %v", k, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("header %s[%d]: relayed %q, direct %q", k, i, got[i], want[i])
			}
		}
	}
	if got := rec.Header().Get("Keep-Alive"); got != "" {
		t.Errorf("hop-by-hop Keep-Alive crossed the relay: %q", got)
	}
	// The backend-side request must carry the client's headers too;
	// spot-check via a reflected request on a second call.
	echo := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Echo-Accept", r.Header.Get("Accept"))
		w.Header().Set("X-Echo-Conn", r.Header.Get("Keep-Alive"))
	}))
	defer echo.Close()
	rt2, err := NewRouter(RouterConfig{Shards: map[string]string{"shard-0": echo.URL}, Directory: testDirectory()})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/infer?cell=cell-0", strings.NewReader(`{}`))
	req.Header.Set("Accept", serve.ContentTypeBinary)
	req.Header.Set("Keep-Alive", "timeout=1")
	rec = httptest.NewRecorder()
	rt2.Handler().ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Echo-Accept"); got != serve.ContentTypeBinary {
		t.Errorf("Accept did not cross to the shard: %q", got)
	}
	if got := rec.Header().Get("X-Echo-Conn"); got != "" {
		t.Errorf("hop-by-hop Keep-Alive crossed to the shard: %q", got)
	}
}

// TestRingCollisionTieBreak drives the 64-bit vnode hash collision
// branch in Ring.rebuild directly through the injectable hash: when
// every vnode hashes identically, the lexically smallest shard name
// must win on every side of every rebuild.
func TestRingCollisionTieBreak(t *testing.T) {
	constHash := func(string) uint64 { return 42 }

	a := newRingWithHash(4, constHash, "shard-b", "shard-a", "shard-c")
	b := newRingWithHash(4, constHash, "shard-c", "shard-b", "shard-a")
	if got := a.Owner("cell-0"); got != "shard-a" {
		t.Fatalf("collision winner %q, want the lexically smallest name", got)
	}
	if a.Owner("cell-0") != b.Owner("cell-0") {
		t.Fatalf("two rebuilds over the same nodes disagree: %q vs %q", a.Owner("cell-0"), b.Owner("cell-0"))
	}
	if len(a.keys) != 1 {
		t.Fatalf("collided vnodes produced %d ring keys, want 1", len(a.keys))
	}

	// The Add path must agree with direct construction.
	grown := newRingWithHash(4, constHash, "shard-b").Add("shard-a")
	if got := grown.Owner("cell-0"); got != "shard-a" {
		t.Fatalf("Add-path collision winner %q", got)
	}
	// Removing the winner hands the key to the next name, on both sides.
	if got := a.Remove("shard-a").Owner("cell-0"); got != "shard-b" {
		t.Fatalf("post-remove collision winner %q, want shard-b", got)
	}

	// A partial collision: two specific vnodes collide, everything else
	// spreads normally — ownership must still agree across rebuild
	// orders for every cell.
	partial := func(s string) uint64 {
		if s == "shard-a#1" || s == "shard-b#2" {
			return 7
		}
		return ringHash(s)
	}
	p1 := newRingWithHash(4, partial, "shard-a", "shard-b", "shard-c")
	p2 := newRingWithHash(4, partial, "shard-c", "shard-a", "shard-b")
	for _, cell := range []string{"cell-0", "cell-1", "cell-2", "x", "y", "z"} {
		if p1.Owner(cell) != p2.Owner(cell) {
			t.Fatalf("partial collision: owners disagree for %q: %q vs %q", cell, p1.Owner(cell), p2.Owner(cell))
		}
	}
}

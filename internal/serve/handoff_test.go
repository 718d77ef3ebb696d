package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"blu/internal/blueprint"
)

// TestHandoffRoundTrip moves a warm session between two in-memory
// servers through the export/import hooks and requires the reshard
// invariants: the digest survives unchanged and a session-keyed infer
// on the gaining side answers byte-identically from the handed-off
// cache.
func TestHandoffRoundTrip(t *testing.T) {
	src, tsSrc, _ := newDurableServer(t, Config{Workers: 2})
	defer drainServer(t, src, tsSrc)
	dst, tsDst, _ := newDurableServer(t, Config{Workers: 2})
	defer drainServer(t, dst, tsDst)

	// Warm cell-a to a cache hit; cell-b stays behind.
	postObserve(t, tsSrc.URL, ObserveRequest{Session: "cell-a", N: 3, Observations: htObservations(40, 3), Seal: true})
	postObserve(t, tsSrc.URL, ObserveRequest{Session: "cell-b", N: 3, Observations: htObservations(30, 5)})
	sessionInfer(t, tsSrc.URL, "cell-a")
	sessionInfer(t, tsSrc.URL, "cell-a")
	hitBody, hdr := sessionInfer(t, tsSrc.URL, "cell-a")
	if hdr != "hit" {
		t.Fatalf("pre-handoff infer not a hit (header %q)", hdr)
	}
	preDigest := probeDigest(t, tsSrc.URL, "cell-a", 3)

	match := func(id string) bool { return strings.HasSuffix(id, "-a") }
	exports := src.ExportSessionRecords(match)
	if len(exports) != 1 || exports[0].ID != "cell-a" {
		t.Fatalf("exported %d sessions, want just cell-a: %+v", len(exports), exports)
	}
	if err := dst.ImportSessionRecord(exports[0].Record); err != nil {
		t.Fatalf("import: %v", err)
	}
	// Retried delivery must be a no-op replace, not a duplicate error.
	if err := dst.ImportSessionRecord(exports[0].Record); err != nil {
		t.Fatalf("idempotent re-import: %v", err)
	}
	if n := src.DropSessionsMatching(match); n != 1 {
		t.Fatalf("dropped %d sessions on the loser, want 1", n)
	}

	if got := probeDigest(t, tsDst.URL, "cell-a", 3); got != preDigest {
		t.Fatalf("digest %s after handoff, want %s", got, preDigest)
	}
	body, hdr := sessionInfer(t, tsDst.URL, "cell-a")
	if hdr != "hit" || !bytes.Equal(body, hitBody) {
		t.Fatalf("post-handoff infer header %q; byte-identical=%v", hdr, bytes.Equal(body, hitBody))
	}

	// The loser no longer knows the session: a fresh observe recreates
	// it cold rather than resurrecting dropped state.
	if src.sessions.get("cell-a") != nil {
		t.Fatal("loser still holds cell-a")
	}
	if dst.sessions.get("cell-b") != nil {
		t.Fatal("unmoved session leaked to the gainer")
	}
}

// TestImportEvictsLRU is the regression for reshards into a full
// registry: an import used to go through the snapshot-restore install,
// which refuses once the registry holds maxSessions, so the gainer
// answered 422 and every retried reshard aborted the same way. An
// import now evicts the least-recently-used session, as an observe
// creating one does.
func TestImportEvictsLRU(t *testing.T) {
	src, tsSrc, _ := newDurableServer(t, Config{Workers: 1})
	defer drainServer(t, src, tsSrc)
	dst, tsDst, _ := newDurableServer(t, Config{Workers: 1})
	defer drainServer(t, dst, tsDst)
	dst.sessions = newSessionStore(1, windowEpochs)

	postObserve(t, tsDst.URL, ObserveRequest{Session: "a", N: 3, Observations: htObservations(20, 3)})
	sessionInfer(t, tsDst.URL, "a")
	keys := mintedKeys(dst.sessions.get("a"))
	if len(keys) == 0 {
		t.Fatal("session infer minted no cache key")
	}
	postObserve(t, tsSrc.URL, ObserveRequest{Session: "b", N: 3, Observations: htObservations(30, 5)})

	evict0 := obsSessionEvict.Value()
	if err := dst.ImportSessionRecord(src.ExportSessionRecords(nil)[0].Record); err != nil {
		t.Fatalf("import into a full registry: %v", err)
	}
	if dst.sessions.get("b") == nil {
		t.Fatal("imported session b is not live")
	}
	if dst.sessions.get("a") != nil {
		t.Fatal("least-recently-used session a survived the import")
	}
	for _, k := range keys {
		if _, ok := dst.cache.peek(k); ok {
			t.Errorf("evicted session a's key %016x is still cached", k)
		}
	}
	if obsSessionEvict.Value() != evict0+1 {
		t.Errorf("evictions +%d, want +1", obsSessionEvict.Value()-evict0)
	}
}

// TestImportRejectsDamage pins that the import path keeps the restore
// validation: a record whose bytes were disturbed is refused whole.
func TestImportRejectsDamage(t *testing.T) {
	src, tsSrc, _ := newDurableServer(t, Config{Workers: 1})
	defer drainServer(t, src, tsSrc)
	dst, tsDst, _ := newDurableServer(t, Config{Workers: 1})
	defer drainServer(t, dst, tsDst)

	postObserve(t, tsSrc.URL, ObserveRequest{Session: "cell-x", N: 3, Observations: htObservations(10, 3)})
	exports := src.ExportSessionRecords(nil)
	if len(exports) != 1 {
		t.Fatalf("exported %d sessions", len(exports))
	}
	rec := append([]byte(nil), exports[0].Record...)
	rec[len(rec)-3] ^= 0x10 // inside the window state: digest gate must fire
	if err := dst.ImportSessionRecord(rec); err == nil {
		t.Fatal("damaged record imported without error")
	}
	if dst.sessions.len() != 0 {
		t.Fatalf("refused import still installed %d sessions", dst.sessions.len())
	}
}

// TestImportBadRecordKeepsLiveSession: a retried or damaged handoff
// delivery for a session the gainer already holds must fail without
// costing the gainer its copy. The record's id header is intact — only
// the body is bad — so the refusal has to come before the live session
// is touched: its digest and its cached infer still answer
// byte-identically afterwards.
func TestImportBadRecordKeepsLiveSession(t *testing.T) {
	s, ts, _ := newDurableServer(t, Config{Workers: 2})
	defer drainServer(t, s, ts)

	postObserve(t, ts.URL, ObserveRequest{Session: "cell-a", N: 3, Observations: htObservations(40, 3), Seal: true})
	sessionInfer(t, ts.URL, "cell-a")
	sessionInfer(t, ts.URL, "cell-a")
	hitBody, hdr := sessionInfer(t, ts.URL, "cell-a")
	if hdr != "hit" {
		t.Fatalf("warm-up infer not a hit (header %q)", hdr)
	}
	preDigest := probeDigest(t, ts.URL, "cell-a", 3)

	rec := s.ExportSessionRecords(nil)[0].Record
	flipped := append([]byte(nil), rec...)
	flipped[len(flipped)-3] ^= 0x10 // window state: digest gate
	for name, bad := range map[string][]byte{
		"truncated":       rec[:len(rec)-5],
		"digest-mismatch": flipped,
	} {
		if err := s.ImportSessionRecord(bad); err == nil {
			t.Fatalf("%s record imported without error", name)
		}
		if got := probeDigest(t, ts.URL, "cell-a", 3); got != preDigest {
			t.Fatalf("%s import: digest %s, want %s", name, got, preDigest)
		}
		body, hdr := sessionInfer(t, ts.URL, "cell-a")
		if hdr != "hit" || !bytes.Equal(body, hitBody) {
			t.Fatalf("%s import: infer header %q, byte-identical=%v", name, hdr, bytes.Equal(body, hitBody))
		}
	}
}

// TestImportRejectsInvalidWarmSeed is the regression for an unchecked
// warm-start blueprint in a handed-off record: one with q = NaN, a
// client outside the window, or an N other than the window's used to be
// installed, and a NaN then made /v1/fleet/blueprints answer 500. The
// record is otherwise intact (its digest gate passes), so the refusal
// must come from validating the seed, and the gainer's live session and
// its cached answer stay.
func TestImportRejectsInvalidWarmSeed(t *testing.T) {
	s, ts, _ := newDurableServer(t, Config{Workers: 2})
	defer drainServer(t, s, ts)

	postObserve(t, ts.URL, ObserveRequest{Session: "cell-a", N: 3, Observations: htObservations(40, 3), Seal: true})
	sessionInfer(t, ts.URL, "cell-a")
	sessionInfer(t, ts.URL, "cell-a")
	hitBody, hdr := sessionInfer(t, ts.URL, "cell-a")
	if hdr != "hit" {
		t.Fatalf("warm-up infer not a hit (header %q)", hdr)
	}
	live := s.sessions.get("cell-a")
	for name, seed := range map[string]*blueprint.Topology{
		"nan-q":        {N: 3, HTs: []blueprint.HiddenTerminal{{Q: math.NaN(), Clients: blueprint.NewClientSet(0, 1)}}},
		"client-range": {N: 3, HTs: []blueprint.HiddenTerminal{{Q: 0.3, Clients: blueprint.NewClientSet(0, 5)}}},
		"n-mismatch":   {N: 4, HTs: []blueprint.HiddenTerminal{{Q: 0.3, Clients: blueprint.NewClientSet(0, 3)}}},
	} {
		rec := s.encodeSessionRecord(&session{
			id: live.id, win: live.win, digest: live.digest, minted: live.minted, lastTopo: seed,
		})
		if err := s.ImportSessionRecord(rec); err == nil {
			t.Fatalf("%s: record imported without error", name)
		}
		if s.sessions.get("cell-a") != live {
			t.Fatalf("%s: refused import replaced the live session", name)
		}
		body, hdr := sessionInfer(t, ts.URL, "cell-a")
		if hdr != "hit" || !bytes.Equal(body, hitBody) {
			t.Fatalf("%s import: infer header %q, byte-identical=%v", name, hdr, bytes.Equal(body, hitBody))
		}
	}
}

// TestImportRejectsOversizedWindow is the regression for an unbounded
// window capacity in a session record: a 90-byte record declaring
// 4,000,000 epochs used to be accepted, after NewWindow had allocated
// 96 MB for it. A capacity above windowEpochs is refused, and the live
// session and its cached answer stay.
func TestImportRejectsOversizedWindow(t *testing.T) {
	s, ts, _ := newDurableServer(t, Config{Workers: 2})
	defer drainServer(t, s, ts)

	postObserve(t, ts.URL, ObserveRequest{Session: "cell-a", N: 3, Observations: htObservations(40, 3), Seal: true})
	sessionInfer(t, ts.URL, "cell-a")
	sessionInfer(t, ts.URL, "cell-a")
	hitBody, hdr := sessionInfer(t, ts.URL, "cell-a")
	if hdr != "hit" {
		t.Fatalf("warm-up infer not a hit (header %q)", hdr)
	}
	live := s.sessions.get("cell-a")
	// With no warm seed and no minted keys, the capacity follows the
	// version, id, digest, seed flag, key count and n.
	rec := s.encodeSessionRecord(&session{id: live.id, win: live.win, digest: live.digest})
	capOff := 1 + 1 + len(live.id) + 8 + 1 + 2 + 1
	if got := binary.LittleEndian.Uint32(rec[capOff:]); got != windowEpochs {
		t.Fatalf("capacity field reads %d, want %d", got, windowEpochs)
	}
	binary.LittleEndian.PutUint32(rec[capOff:], 4_000_000)
	if err := s.ImportSessionRecord(rec); err == nil {
		t.Fatal("record with a 4,000,000-epoch window imported without error")
	}
	if s.sessions.get("cell-a") != live {
		t.Fatal("refused import replaced the live session")
	}
	body, hdr := sessionInfer(t, ts.URL, "cell-a")
	if hdr != "hit" || !bytes.Equal(body, hitBody) {
		t.Fatalf("infer header %q after the refused import, byte-identical=%v", hdr, bytes.Equal(body, hitBody))
	}
}

// TestSessionRecordsKeepRecency is the regression for handoff order:
// records used to be exported most recently used first, and importing
// each as the most recent session reversed the order, so the receiving
// shard evicted the session the sender had used last. After sessions
// a, b, c (c most recent) arrive in a 3-session registry, by handoff or
// by snapshot restore, one new session must evict a.
func TestSessionRecordsKeepRecency(t *testing.T) {
	observeABC := func(t *testing.T, url string) {
		for i, id := range []string{"a", "b", "c"} {
			postObserve(t, url, ObserveRequest{Session: id, N: 3, Observations: htObservations(10, 3+i)})
		}
	}
	for _, tc := range []struct {
		name    string
		receive func(t *testing.T) (*Server, *httptest.Server)
	}{
		{"handoff", func(t *testing.T) (*Server, *httptest.Server) {
			src, tsSrc, _ := newDurableServer(t, Config{Workers: 1})
			defer drainServer(t, src, tsSrc)
			observeABC(t, tsSrc.URL)
			dst, tsDst, _ := newDurableServer(t, Config{Workers: 1})
			dst.sessions = newSessionStore(3, windowEpochs)
			for _, ex := range src.ExportSessionRecords(nil) {
				if err := dst.ImportSessionRecord(ex.Record); err != nil {
					t.Fatalf("import %s: %v", ex.ID, err)
				}
			}
			return dst, tsDst
		}},
		{"restore", func(t *testing.T) (*Server, *httptest.Server) {
			cfg := durableCfg(t.TempDir())
			s1, ts1, _ := newDurableServer(t, cfg)
			observeABC(t, ts1.URL)
			drainServer(t, s1, ts1) // writes the final snapshot
			s2, ts2, stats := newDurableServer(t, cfg)
			if stats.SnapshotRecords != 3 {
				t.Fatalf("restored %d snapshot sessions, want 3", stats.SnapshotRecords)
			}
			s2.sessions.mu.Lock()
			s2.sessions.max = 3
			s2.sessions.mu.Unlock()
			return s2, ts2
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := tc.receive(t)
			defer drainServer(t, s, ts)
			postObserve(t, ts.URL, ObserveRequest{Session: "d", N: 3})
			if s.sessions.get("a") != nil {
				t.Error("least recently used session a survived a new session")
			}
			for _, id := range []string{"b", "c", "d"} {
				if s.sessions.get(id) == nil {
					t.Errorf("session %s was evicted", id)
				}
			}
		})
	}
}

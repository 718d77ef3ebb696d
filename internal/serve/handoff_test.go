package serve

import (
	"bytes"
	"strings"
	"testing"
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

	evict0, dropped0 := obsSessionEvict.Value(), obsSessionRestoreDropped.Value()
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
	if obsSessionEvict.Value() != evict0+1 || obsSessionRestoreDropped.Value() != dropped0 {
		t.Errorf("evictions +%d, restore drops +%d; want +1 and +0",
			obsSessionEvict.Value()-evict0, obsSessionRestoreDropped.Value()-dropped0)
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

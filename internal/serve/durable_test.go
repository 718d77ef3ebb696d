package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"blu/internal/faults"
)

// durableCfg builds a manually-paced durable config: no background
// snapshot and no background WAL sync fire on their own, so every test
// controls exactly which folds are durable at the kill.
func durableCfg(dir string) Config {
	return Config{
		Workers:          2,
		StateDir:         dir,
		SnapshotInterval: time.Hour,
		WALSyncInterval:  time.Hour,
	}
}

// newDurableServer builds a durable server plus an httptest front end.
// No cleanup is registered: each test ends it explicitly with either
// drainServer (graceful) or crashServer (kill -9).
func newDurableServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *RecoverStats) {
	t.Helper()
	s, stats, err := NewDurable(cfg)
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	return s, httptest.NewServer(s.Handler()), stats
}

func drainServer(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// crashServer is the in-process kill -9: the httptest listener dies
// abruptly and Abort tears the server down without a final snapshot or
// WAL sync — recovery gets whatever was durable at the moment of death.
func crashServer(s *Server, ts *httptest.Server) {
	ts.Close()
	s.Abort()
}

// probeDigest reads a session's current canonical digest without
// moving it: an empty observation batch folds nothing.
func probeDigest(t *testing.T, url, session string, n int) string {
	t.Helper()
	return postObserve(t, url, ObserveRequest{Session: session, N: n}).Digest
}

// sessionInfer posts a session-keyed infer and returns the body plus
// the cache header.
func sessionInfer(t *testing.T, url, session string) ([]byte, string) {
	t.Helper()
	resp := post(t, url+"/v1/infer", []byte(`{"session":"`+session+`","options":{"seed":7}}`))
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session infer status %d: %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Blu-Cache")
}

// TestKillRestoreEquivalence is the acceptance test: kill -9 a durable
// server and require that every synced session restores
// digest-identically — snapshot-restored and WAL-replayed alike — and
// that a session-keyed infer after recovery answers byte-identically
// from the restored cache instead of going cold.
func TestKillRestoreEquivalence(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	s1, ts1, stats := newDurableServer(t, cfg)
	if stats.SnapshotRecords != 0 || stats.WALReplayed != 0 {
		t.Fatalf("cold start recovered state: %+v", stats)
	}

	// Two sessions with real evidence, then the warm-start infer
	// sequence on cell-a: miss (cold), miss (warm seed changes the
	// key), hit — the hit body is the byte-identity target.
	postObserve(t, ts1.URL, ObserveRequest{Session: "cell-a", N: 3, Observations: htObservations(40, 3), Seal: true})
	postObserve(t, ts1.URL, ObserveRequest{Session: "cell-b", N: 3, Observations: htObservations(30, 5)})
	sessionInfer(t, ts1.URL, "cell-a")
	warmBody, _ := sessionInfer(t, ts1.URL, "cell-a")
	hitBody, hdr := sessionInfer(t, ts1.URL, "cell-a")
	if hdr != "hit" || !bytes.Equal(warmBody, hitBody) {
		t.Fatalf("pre-kill steady state not a byte-identical hit (header %q)", hdr)
	}

	// Snapshot captures cell-a (with its minted cache bodies) and
	// cell-b; everything after lives only in the WAL.
	if err := s1.SnapshotNow(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	postObserve(t, ts1.URL, ObserveRequest{Session: "cell-b", N: 3, Observations: htObservations(20, 7), Seal: true})
	postObserve(t, ts1.URL, ObserveRequest{Session: "cell-c", N: 4, Observations: []ObservationWire{
		{Scheduled: []int{0, 1, 2, 3}, Accessed: []int{0, 3}},
		{Scheduled: []int{0, 2}, Accessed: []int{0, 2}},
	}})
	if err := s1.store.Flush(); err != nil {
		t.Fatalf("wal flush: %v", err)
	}

	preA := probeDigest(t, ts1.URL, "cell-a", 3)
	preB := probeDigest(t, ts1.URL, "cell-b", 3)
	preC := probeDigest(t, ts1.URL, "cell-c", 4)
	if err := s1.store.Flush(); err != nil { // the probes appended too
		t.Fatalf("wal flush: %v", err)
	}
	crashServer(s1, ts1)

	s2, ts2, stats := newDurableServer(t, cfg)
	if stats.SnapshotRecords != 2 {
		t.Fatalf("restored %d snapshot sessions, want cell-a and cell-b: %+v", stats.SnapshotRecords, stats)
	}
	if stats.WALReplayed < 5 {
		t.Fatalf("replayed %d WAL records, want the 5 post-snapshot batches: %+v", stats.WALReplayed, stats)
	}
	if stats.CorruptDropped != 0 {
		t.Fatalf("clean kill counted %d corrupt: %+v", stats.CorruptDropped, stats)
	}

	if got := probeDigest(t, ts2.URL, "cell-a", 3); got != preA {
		t.Errorf("cell-a digest %s after restore, want %s", got, preA)
	}
	if got := probeDigest(t, ts2.URL, "cell-b", 3); got != preB {
		t.Errorf("cell-b (snapshot+WAL) digest %s after restore, want %s", got, preB)
	}
	if got := probeDigest(t, ts2.URL, "cell-c", 4); got != preC {
		t.Errorf("cell-c (WAL-only) digest %s after restore, want %s", got, preC)
	}

	// The restored warm seed and cache must answer the same infer
	// byte-identically without touching the solver.
	restoredBody, hdr := sessionInfer(t, ts2.URL, "cell-a")
	if hdr != "hit" {
		t.Errorf("post-restore session infer cache header %q, want hit", hdr)
	}
	if !bytes.Equal(restoredBody, hitBody) {
		t.Errorf("post-restore infer not byte-identical:\npre  %s\npost %s", hitBody, restoredBody)
	}

	// Graceful drain writes a final snapshot; a third generation must
	// come back from it with the same digests and no WAL replay needed.
	drainServer(t, s2, ts2)
	s3, ts3, stats := newDurableServer(t, cfg)
	if stats.CorruptDropped != 0 {
		t.Fatalf("drain image counted corrupt: %+v", stats)
	}
	if stats.SnapshotRecords != 3 || stats.WALReplayed != 0 {
		t.Fatalf("post-drain recovery %+v, want 3 snapshot sessions and an empty WAL", stats)
	}
	if got := probeDigest(t, ts3.URL, "cell-b", 3); got != preB {
		t.Errorf("cell-b digest %s after drain+restore, want %s", got, preB)
	}
	drainServer(t, s3, ts3)
}

// TestRestoreDropsOnlyUnsyncedWindow pins the loss bound: a kill -9
// loses exactly the observe batches that were never synced — the
// snapshot-covered state survives untouched.
func TestRestoreDropsOnlyUnsyncedWindow(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	s1, ts1, _ := newDurableServer(t, cfg)

	postObserve(t, ts1.URL, ObserveRequest{Session: "cell-a", N: 3, Observations: htObservations(40, 3)})
	synced := probeDigest(t, ts1.URL, "cell-a", 3)
	if err := s1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	// Acknowledged but never synced: the window a crash may lose.
	moved := postObserve(t, ts1.URL, ObserveRequest{
		Session: "cell-a", N: 3, Observations: htObservations(25, 8), Seal: true,
	}).Digest
	if moved == synced {
		t.Fatal("post-snapshot batch did not move the digest; test is vacuous")
	}
	crashServer(s1, ts1)

	s2, ts2, stats := newDurableServer(t, cfg)
	defer drainServer(t, s2, ts2)
	if stats.WALReplayed != 0 {
		t.Fatalf("replayed %d unsynced records", stats.WALReplayed)
	}
	if stats.CorruptDropped != 0 {
		t.Fatalf("clean sync boundary counted %d corrupt", stats.CorruptDropped)
	}
	if got := probeDigest(t, ts2.URL, "cell-a", 3); got != synced {
		t.Errorf("restored digest %s, want the synced state %s", got, synced)
	}
}

// TestRecoverySurvivesCorruptWALTail injects a torn write into the
// only WAL segment: recovery must come back serving, with the damage
// counted, never panicking, and the surviving prefix applied.
func TestRecoverySurvivesCorruptWALTail(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	s1, ts1, _ := newDurableServer(t, cfg)
	for i := 0; i < 10; i++ {
		postObserve(t, ts1.URL, ObserveRequest{Session: "cell-a", N: 3, Observations: htObservations(10, 3), Seal: true})
	}
	if err := s1.store.Flush(); err != nil {
		t.Fatal(err)
	}
	crashServer(s1, ts1)

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v", err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], faults.TornWrite(3, data), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2, stats := newDurableServer(t, cfg)
	defer drainServer(t, s2, ts2)
	if stats.CorruptDropped == 0 {
		t.Fatalf("torn tail not counted: %+v", stats)
	}
	if stats.WALReplayed >= 10 {
		t.Fatalf("replayed %d records from a torn file", stats.WALReplayed)
	}
	// The server still serves: the session folds onward from whatever
	// prefix survived.
	or := postObserve(t, ts2.URL, ObserveRequest{Session: "cell-a", N: 3, Observations: htObservations(5, 3)})
	if or.Folded != 5 {
		t.Fatalf("post-recovery fold broken: %+v", or)
	}
}

// TestRecoverySurvivesCorruptSnapshot flips bits across the snapshot
// image: recovery must never panic, count the damage, and keep every
// session whose record still verifies.
func TestRecoverySurvivesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	s1, ts1, _ := newDurableServer(t, cfg)
	postObserve(t, ts1.URL, ObserveRequest{Session: "cell-a", N: 3, Observations: htObservations(40, 3), Seal: true})
	postObserve(t, ts1.URL, ObserveRequest{Session: "cell-b", N: 5, Observations: []ObservationWire{
		{Scheduled: []int{0, 1, 2, 3, 4}, Accessed: []int{1, 4}},
	}})
	drainServer(t, s1, ts1)

	snap := filepath.Join(dir, "state.blus")
	clean, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 12; seed++ {
		if err := os.WriteFile(snap, faults.BitFlip(seed, clean, 4), 0o644); err != nil {
			t.Fatal(err)
		}
		s2, ts2, stats := newDurableServer(t, cfg)
		if stats.SnapshotRecords == 2 && stats.CorruptDropped == 0 {
			t.Fatalf("seed %d: 4 bit flips left recovery spotless", seed)
		}
		// Still serving either way.
		or := postObserve(t, ts2.URL, ObserveRequest{Session: "probe", N: 2, Observations: []ObservationWire{
			{Scheduled: []int{0, 1}, Accessed: []int{0}},
		}})
		if or.Folded != 1 {
			t.Fatalf("seed %d: post-recovery fold broken: %+v", seed, or)
		}
		crashServer(s2, ts2)
		// Reset the directory to exactly (corrupt snapshot → next seed's
		// base is the clean image again).
		matches, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		for _, m := range matches {
			os.Remove(m)
		}
	}
}

// TestHealthzFlipsToDraining pins the zero-downtime handshake: a
// draining server answers 503 "draining" so balancers stop routing.
func TestHealthzFlipsToDraining(t *testing.T) {
	s := newServer(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy server: %v %v", resp, err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503: %s", resp.StatusCode, body)
	}
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "draining" {
		t.Fatalf("draining healthz body %s (%v)", body, err)
	}
}

// TestNewDurableWithoutStateDirIsMemoryOnly guards the default path:
// no StateDir means no store, no files, and memory-only semantics.
func TestNewDurableWithoutStateDirIsMemoryOnly(t *testing.T) {
	s, stats, err := NewDurable(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.store != nil || stats.SnapshotRecords != 0 {
		t.Fatalf("memory-only server grew a store: %+v", stats)
	}
	ts := httptest.NewServer(s.Handler())
	or := postObserve(t, ts.URL, ObserveRequest{Session: "m", N: 2, Observations: []ObservationWire{
		{Scheduled: []int{0, 1}, Accessed: []int{0, 1}},
	}})
	if or.Folded != 1 {
		t.Fatalf("memory-only observe: %+v", or)
	}
	drainServer(t, s, ts)
}

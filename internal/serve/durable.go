// Durable session state: the serve-side half of internal/persist
// (DESIGN.md §15). A durable server logs every accepted /v1/observe
// batch to the WAL before folding it and periodically snapshots every
// live session — window ring, canonical digest, warm-start blueprint,
// and the minted cache entries with their exact response bytes — so a
// restart restores the streaming state digest-identically: the
// restored canonical digests equal the pre-kill digests, and a
// session-keyed infer after recovery warm-starts (and, for an
// unchanged session, answers byte-identically from the restored
// cache) instead of dropping the fleet to cold inference.
//
// Consistency protocol. Observe folds hold stateMu shared around
// (WAL append, fold): the append assigns the batch its LSN under the
// session lock, so per-session WAL order equals fold order — which
// matters because sealing an epoch does not commute with folds. A
// snapshot takes stateMu exclusively: with no fold mid-flight,
// Store.Rotate's cut is an exact boundary — every LSN below it is in
// the collected image, every LSN at or above it is not — and replaying
// the WAL from the cut through the same fold path reproduces the
// never-restarted state.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"blu/internal/access"
	"blu/internal/blueprint"
	"blu/internal/persist"
)

// sessionRecordVersion versions the snapshot's per-session payload,
// independently of the BLUS container version.
const sessionRecordVersion = 1

// RecoverStats re-exports the persist recovery totals.
type RecoverStats = persist.RecoverStats

// NewDurable builds a Server, starts its worker pool, and, when
// cfg.StateDir is set, opens the durability layer under it: recover
// (restore the snapshot image, replay the WAL through the observe fold
// path), then start logging and periodic snapshots. With an empty
// StateDir the server is memory-only. Callers must eventually Drain,
// which also serializes a final snapshot before closing the store.
func NewDurable(cfg Config) (*Server, *RecoverStats, error) {
	s := newServer(cfg)
	if s.cfg.StateDir == "" {
		return s, &RecoverStats{}, nil
	}
	store, stats, err := persist.Open(s.cfg.StateDir, persist.Options{
		SyncInterval: s.cfg.WALSyncInterval,
	}, s.installSessionRecord, s.replayObserveRecord)
	if err != nil {
		// The pool is already running; stop it before reporting.
		_ = s.Drain(context.Background())
		return nil, nil, err
	}
	s.store = store
	s.snapStop = make(chan struct{})
	s.snapDone = make(chan struct{})
	go s.snapshotLoop()
	return s, stats, nil
}

// snapshotLoop writes a snapshot every SnapshotInterval until Drain
// stops it (Drain then writes the final image itself).
func (s *Server) snapshotLoop() {
	defer close(s.snapDone)
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-t.C:
			s.SnapshotNow() // an I/O error here surfaces on the next Append
		}
	}
}

// SnapshotNow cuts the WAL and persists the current session image
// atomically. The collection runs under stateMu held exclusively, so
// the image reflects exactly the folds below the cut.
func (s *Server) SnapshotNow() error {
	if s.store == nil {
		return errors.New("serve: no state dir configured")
	}
	s.stateMu.Lock()
	cut, err := s.store.Rotate()
	if err != nil {
		s.stateMu.Unlock()
		return err
	}
	live := s.sessions.export()
	records := make([][]byte, 0, len(live))
	for _, sess := range live {
		records = append(records, s.encodeSessionRecord(sess))
	}
	s.stateMu.Unlock()
	// The image is detached (deep-encoded) — the atomic write happens
	// off the fold path.
	return s.store.WriteSnapshot(cut, records)
}

// walObservePayload renders the canonical durable form of an accepted
// observe batch: scheduled sets deduplicated (exactly what the window
// folds), accessed sets as validated, and no deadline — replay must
// not re-apply a long-dead timeout. The canonical form always fits the
// codec: at most 64 distinct scheduled clients and a 64-bit accessed
// mask per observation.
func walObservePayload(req *ObserveRequest, accessed []blueprint.ClientSet) ([]byte, error) {
	canon := ObserveRequest{Session: req.Session, N: req.N, Seal: req.Seal}
	canon.Observations = make([]ObservationWire, len(req.Observations))
	for oi := range req.Observations {
		var set blueprint.ClientSet
		for _, c := range req.Observations[oi].Scheduled {
			set = set.Add(c) // validated in range already
		}
		canon.Observations[oi] = ObservationWire{
			Scheduled: set.Members(),
			Accessed:  accessed[oi].Members(),
		}
	}
	return EncodeObserveRequest(&canon)
}

// replayObserveRecord re-applies one WAL record through the same
// validate + fold path a live request takes. The store is not wired
// yet during recovery, so nothing re-appends.
func (s *Server) replayObserveRecord(_ uint64, payload []byte) error {
	req, err := DecodeObserveRequest(payload)
	if err != nil {
		return err
	}
	accessed, err := validateObserve(req)
	if err != nil {
		return err
	}
	sess, err := s.openSession(req.Session, req.N)
	if err != nil {
		return err
	}
	_, err = s.foldObserve(sess, req, accessed, nil)
	return err
}

// encodeSessionRecord serializes one live session under its lock:
// identity, digest, warm-start blueprint, minted cache keys with their
// cached bodies (when still resident), and the full window state.
func (s *Server) encodeSessionRecord(sess *session) []byte {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	st := sess.win.Export()

	w := wireWriter{b: make([]byte, 0, 256)}
	w.u8(sessionRecordVersion)
	w.str(sess.id)
	w.u64(sess.digest)
	w.flag(sess.lastTopo != nil)
	if sess.lastTopo != nil {
		w.u8(byte(sess.lastTopo.N))
		w.u16(uint16(len(sess.lastTopo.HTs)))
		for _, ht := range sess.lastTopo.HTs {
			w.f64(ht.Q)
			w.u64(uint64(ht.Clients))
		}
	}
	// Ascending key order makes a record a pure function of the state.
	keys := make([]uint64, 0, len(sess.minted))
	for key := range sess.minted {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	w.u16(uint16(len(keys)))
	for _, key := range keys {
		w.u64(key)
		// A body evicted by capacity is left out; the key alone restores.
		body, ok := s.cache.peek(key)
		w.flag(ok)
		if ok {
			w.u32(uint32(len(body)))
			w.b = append(w.b, body...)
		}
	}
	w.u8(byte(st.N))
	w.u32(uint32(st.Capacity))
	w.u64(uint64(st.Seq))
	w.u32(uint32(len(st.Epochs)))
	for _, ep := range st.Epochs {
		w.u32(uint32(len(ep.Entries)))
		for _, o := range ep.Entries {
			w.u64(uint64(o.Scheduled))
			w.u64(uint64(o.Accessed))
			w.u32(uint32(o.Count))
		}
	}
	w.u16(uint16(len(st.LastSeen)))
	for _, v := range st.LastSeen {
		w.u64(uint64(int64(v)))
	}
	return w.b
}

// cachedBody is one minted cache entry carried inside a session record.
type cachedBody struct {
	key  uint64
	body []byte
}

// installSessionRecord puts one session record in place: the snapshot
// restore callback and the handoff import both come here. The record is
// decoded before anything is touched, so a refused record leaves the
// live session with the same id, and its cached answers, as they were.
// The decoded session becomes the most recently used one; it replaces a
// live session with the same id, or else evicts the least recently used
// session past the bound. The displaced session's minted cache keys are
// dropped before the record's cached bodies are put back.
func (s *Server) installSessionRecord(rec []byte) error {
	sess, bodies, err := decodeSessionRecord(rec)
	if err != nil {
		return err
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if old := s.sessions.put(sess); old != nil {
		s.dropSessionKeys(old)
	}
	for _, cb := range bodies {
		s.cache.put(cb.key, cb.body)
	}
	return nil
}

// decodeSessionRecord decodes and validates one session record without
// touching any server state. Any structural damage, a window capacity
// above windowEpochs, an invalid warm seed, or a restored window whose
// recomputed canonical digest disagrees with the recorded one rejects
// the record whole.
func decodeSessionRecord(rec []byte) (*session, []cachedBody, error) {
	r := wireReader{b: rec}
	if ver := r.u8(); ver != sessionRecordVersion {
		return nil, nil, fmt.Errorf("session record version %d, want %d", ver, sessionRecordVersion)
	}
	id := r.str()
	digest := r.u64()
	var topo *blueprint.Topology
	if r.flag("warm seed") {
		topo = &blueprint.Topology{N: int(r.u8())}
		for k := r.count(int(r.u16()), 16, "terminals"); k > 0; k-- {
			topo.HTs = append(topo.HTs, blueprint.HiddenTerminal{Q: r.f64(), Clients: blueprint.ClientSet(r.u64())})
		}
	}
	mintedCount := r.count(int(r.u16()), 9, "minted keys")
	minted := make(map[uint64]struct{}, mintedCount)
	var bodies []cachedBody
	for k := 0; k < mintedCount; k++ {
		key := r.u64()
		minted[key] = struct{}{}
		if r.flag("cached body") {
			bodies = append(bodies, cachedBody{key: key, body: bytes.Clone(r.take(int(r.u32())))})
		}
	}
	st := access.WindowState{N: int(r.u8()), Capacity: int(r.u32()), Seq: int(r.u64())}
	st.Epochs = make([]access.WindowEpochState, r.count(int(r.u32()), 4, "epochs"))
	for e := range st.Epochs {
		ep := &st.Epochs[e]
		ep.Entries = make([]access.WindowObs, r.count(int(r.u32()), 20, "epoch entries"))
		for i := range ep.Entries {
			ep.Entries[i] = access.WindowObs{
				Scheduled: blueprint.ClientSet(r.u64()),
				Accessed:  blueprint.ClientSet(r.u64()),
				Count:     int(int32(r.u32())),
			}
		}
	}
	st.LastSeen = make([]int, r.count(int(r.u16()), 8, "freshness entries"))
	for i := range st.LastSeen {
		st.LastSeen[i] = int(int64(r.u64()))
	}
	if err := r.end(); err != nil {
		return nil, nil, err
	}
	if id == "" || len(id) > maxSessionIDLen {
		return nil, nil, fmt.Errorf("session record id length %d", len(id))
	}
	// Every window this server creates holds windowEpochs epochs; a larger
	// capacity would only size an allocation from outside input.
	if st.Capacity > windowEpochs {
		return nil, nil, fmt.Errorf("session %q window capacity %d exceeds %d", id, st.Capacity, windowEpochs)
	}

	win, err := access.ImportWindow(&st)
	if err != nil {
		return nil, nil, err
	}
	// Integrity gate: the restored window must reproduce the recorded
	// canonical digest, or the session is not the one that was saved.
	if got := digestMeasurements(win.Measurements()); got != digest {
		return nil, nil, fmt.Errorf("session %q restored digest %016x, recorded %016x", id, got, digest)
	}
	// The warm-start blueprint is outside input too (a handoff import):
	// it must be a valid topology over the window's clients, or it would
	// seed the solver and be served from /v1/fleet/blueprints as is.
	if topo != nil {
		if err := topo.Validate(); err != nil {
			return nil, nil, fmt.Errorf("session %q warm seed: %w", id, err)
		}
		if topo.N != st.N {
			return nil, nil, fmt.Errorf("session %q warm seed has n=%d, window n=%d", id, topo.N, st.N)
		}
	}
	return &session{
		id:       id,
		win:      win,
		digest:   digest,
		lastTopo: topo,
		minted:   minted,
	}, bodies, nil
}

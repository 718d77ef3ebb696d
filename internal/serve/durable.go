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
	"context"
	"errors"
	"fmt"
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
	}, s.restoreSessionRecord, s.replayObserveRecord)
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
	w.u8(byte(len(sess.id)))
	w.b = append(w.b, sess.id...)
	w.u64(sess.digest)
	if sess.lastTopo == nil {
		w.u8(0)
	} else {
		w.u8(1)
		w.u8(byte(sess.lastTopo.N))
		w.u16(uint16(len(sess.lastTopo.HTs)))
		for _, ht := range sess.lastTopo.HTs {
			w.f64(ht.Q)
			w.u64(uint64(ht.Clients))
		}
	}
	w.u16(uint16(len(sess.minted)))
	for key := range sess.minted {
		w.u64(key)
		if body, ok := s.cache.peek(key); ok {
			w.u8(1)
			w.u32(uint32(len(body)))
			w.b = append(w.b, body...)
		} else {
			w.u8(0) // evicted by capacity; the key alone still restores
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

// restoreSessionRecord is the snapshot-restore callback: decode one
// record, install the session, and re-seat its cached response bodies.
// A full registry or a live session with the same id refuses the
// install. A rejected record is counted corrupt by persist and recovery
// continues with the remaining sessions.
func (s *Server) restoreSessionRecord(rec []byte) error {
	sess, bodies, err := decodeSessionRecord(rec)
	if err != nil {
		return err
	}
	if !s.sessions.install(sess) {
		return fmt.Errorf("session registry full at %q", sess.id)
	}
	for _, cb := range bodies {
		s.cache.put(cb.key, cb.body)
	}
	return nil
}

// decodeSessionRecord decodes and validates one session record without
// touching any server state. Every structural check failing — and a
// restored window whose recomputed canonical digest disagrees with the
// recorded one — rejects the record whole.
func decodeSessionRecord(rec []byte) (*session, []cachedBody, error) {
	r := wireReader{b: rec}
	ver, err := r.u8()
	if err != nil {
		return nil, nil, err
	}
	if ver != sessionRecordVersion {
		return nil, nil, fmt.Errorf("session record version %d, want %d", ver, sessionRecordVersion)
	}
	idLen, err := r.u8()
	if err != nil {
		return nil, nil, err
	}
	if int(idLen) > maxSessionIDLen || r.remaining() < int(idLen) {
		return nil, nil, fmt.Errorf("session record id length %d", idLen)
	}
	id := string(r.b[r.off : r.off+int(idLen)])
	r.off += int(idLen)
	if id == "" {
		return nil, nil, errors.New("session record with empty id")
	}
	digest, err := r.u64()
	if err != nil {
		return nil, nil, err
	}
	hasTopo, err := r.u8()
	if err != nil {
		return nil, nil, err
	}
	var topo *blueprint.Topology
	if hasTopo == 1 {
		tn, err := r.u8()
		if err != nil {
			return nil, nil, err
		}
		htCount, err := r.u16()
		if err != nil {
			return nil, nil, err
		}
		topo = &blueprint.Topology{N: int(tn)}
		for k := 0; k < int(htCount); k++ {
			q, err := r.f64()
			if err != nil {
				return nil, nil, err
			}
			mask, err := r.u64()
			if err != nil {
				return nil, nil, err
			}
			topo.HTs = append(topo.HTs, blueprint.HiddenTerminal{Q: q, Clients: blueprint.ClientSet(mask)})
		}
	} else if hasTopo != 0 {
		return nil, nil, fmt.Errorf("session record topo flag %d", hasTopo)
	}
	mintedCount, err := r.u16()
	if err != nil {
		return nil, nil, err
	}
	minted := make(map[uint64]struct{}, mintedCount)
	var bodies []cachedBody
	for k := 0; k < int(mintedCount); k++ {
		key, err := r.u64()
		if err != nil {
			return nil, nil, err
		}
		hasBody, err := r.u8()
		if err != nil {
			return nil, nil, err
		}
		switch hasBody {
		case 0:
		case 1:
			blen, err := r.u32()
			if err != nil {
				return nil, nil, err
			}
			if int(blen) > r.remaining() {
				return nil, nil, fmt.Errorf("session record body length %d overruns", blen)
			}
			body := make([]byte, blen)
			copy(body, r.b[r.off:r.off+int(blen)])
			r.off += int(blen)
			bodies = append(bodies, cachedBody{key: key, body: body})
		default:
			return nil, nil, fmt.Errorf("session record body flag %d", hasBody)
		}
		minted[key] = struct{}{}
	}

	var st access.WindowState
	n, err := r.u8()
	if err != nil {
		return nil, nil, err
	}
	st.N = int(n)
	capacity, err := r.u32()
	if err != nil {
		return nil, nil, err
	}
	st.Capacity = int(capacity)
	seq, err := r.u64()
	if err != nil {
		return nil, nil, err
	}
	st.Seq = int(seq)
	epochCount, err := r.u32()
	if err != nil {
		return nil, nil, err
	}
	if int(epochCount) > st.Capacity {
		return nil, nil, fmt.Errorf("session record has %d epochs for capacity %d", epochCount, st.Capacity)
	}
	for e := 0; e < int(epochCount); e++ {
		entryCount, err := r.u32()
		if err != nil {
			return nil, nil, err
		}
		// Each encoded entry is 20 bytes; an impossible count fails here
		// instead of allocating.
		if r.remaining() < 20*int(entryCount) {
			return nil, nil, fmt.Errorf("session record epoch %d truncated", e)
		}
		ep := access.WindowEpochState{Entries: make([]access.WindowObs, entryCount)}
		for i := range ep.Entries {
			sched, _ := r.u64()
			acc, _ := r.u64()
			count, _ := r.u32()
			ep.Entries[i] = access.WindowObs{
				Scheduled: blueprint.ClientSet(sched),
				Accessed:  blueprint.ClientSet(acc),
				Count:     int(int32(count)),
			}
		}
		st.Epochs = append(st.Epochs, ep)
	}
	lastSeenLen, err := r.u16()
	if err != nil {
		return nil, nil, err
	}
	if r.remaining() != 8*int(lastSeenLen) {
		return nil, nil, fmt.Errorf("session record freshness truncated or trailing bytes")
	}
	st.LastSeen = make([]int, lastSeenLen)
	for i := range st.LastSeen {
		v, _ := r.u64()
		st.LastSeen[i] = int(int64(v))
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
	return &session{
		id:       id,
		win:      win,
		digest:   digest,
		lastTopo: topo,
		minted:   minted,
	}, bodies, nil
}

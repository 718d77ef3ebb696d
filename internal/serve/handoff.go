// Session handoff hooks: the serve-side surface the fleet tier uses to
// move live sessions between shards during a reshard. Export reuses the
// snapshot encoder, import reuses the restore path — so a handed-off
// session crosses the wire in exactly the bytes a crash recovery would
// trust, digest gate included, and the fleet layer never learns the
// record layout.
package serve

import "blu/internal/obs"

var (
	obsHandoffExported = obs.GetCounter("serve_handoff_exported_total")
	obsHandoffImported = obs.GetCounter("serve_handoff_imported_total")
)

// SessionExport is one session's wire form: the same self-validating
// record a snapshot would hold (id, canonical digest, warm-start
// blueprint, window ring, minted cache keys with resident bodies).
type SessionExport struct {
	ID     string
	Record []byte
}

// ExportSessionRecords encodes every live session whose id matches,
// most recently used first. Each record is collected under its
// session's lock, so it is internally consistent; folds into other
// sessions proceed concurrently.
func (s *Server) ExportSessionRecords(match func(id string) bool) []SessionExport {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	var out []SessionExport
	for _, sess := range s.sessions.export() {
		if match != nil && !match(sess.id) {
			continue
		}
		out = append(out, SessionExport{ID: sess.id, Record: s.encodeSessionRecord(sess)})
		obsHandoffExported.Inc()
	}
	return out
}

// ImportSessionRecord installs one exported session through the same
// validate + digest-gate path as snapshot restore. An existing session
// with the same id is replaced (its minted cache keys dropped first),
// so a retried handoff is idempotent — but only once the record has
// decoded in full: a record this shard refuses leaves the session it
// already holds, and that session's cached answers, in place. The
// import is memory-only; a durable caller should SnapshotNow afterwards
// to make the transfer crash-safe on this side.
func (s *Server) ImportSessionRecord(rec []byte) error {
	sess, bodies, err := decodeSessionRecord(rec)
	if err != nil {
		return err
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if old := s.sessions.remove(sess.id); old != nil {
		s.dropSessionKeys(old)
	}
	if err := s.installSession(sess, bodies); err != nil {
		return err
	}
	obsHandoffImported.Inc()
	return nil
}

// DropSessionsMatching detaches every matching session and invalidates
// its minted cache keys — the losing shard's final step once the
// gaining shard has acknowledged the imports. Returns the drop count.
func (s *Server) DropSessionsMatching(match func(id string) bool) int {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	dropped := 0
	for _, sess := range s.sessions.export() {
		if match != nil && !match(sess.id) {
			continue
		}
		if old := s.sessions.remove(sess.id); old != nil {
			s.dropSessionKeys(old)
			dropped++
		}
	}
	return dropped
}

// Durable reports whether the server runs a persist store — i.e.
// whether handoff callers should checkpoint after mutating sessions.
func (s *Server) Durable() bool { return s.store != nil }

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
// least recently used first, so importing them in order rebuilds their
// recency on the receiving shard. Each record is collected under its
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

// ImportSessionRecord installs one exported session through the path
// snapshot restore takes (installSessionRecord): validated and digest-
// gated, then put in as the most recently used session. An existing
// session with the same id is replaced, so a retried handoff is
// idempotent; otherwise a full registry evicts its least-recently-used
// session, as an observe creating one would. A record this shard refuses
// leaves the session it already holds, and that session's cached
// answers, in place. The import is memory-only; a durable caller should
// SnapshotNow afterwards to make the transfer crash-safe on this side.
func (s *Server) ImportSessionRecord(rec []byte) error {
	if err := s.installSessionRecord(rec); err != nil {
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

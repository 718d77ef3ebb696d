// Fleet-facing hooks: the small surface internal/fleet needs to build
// a sharded controller tier on top of Server without reaching into its
// internals — reading a session's inferred blueprint for publication,
// seeding a session's warm start with blueprints received from peer
// cells, and simulating an abrupt kill in-process for crash-recovery
// tests.
package serve

import (
	"fmt"

	"blu/internal/blueprint"
)

// SessionBlueprint returns a copy of session id's last inferred
// blueprint together with the session's canonical measurement digest
// and current epoch. ok is false when the session does not exist; topo
// is nil when it exists but nothing has been inferred from it yet. The
// copy is detached — callers may mutate it freely.
func (s *Server) SessionBlueprint(id string) (topo *blueprint.Topology, digest uint64, epoch int, ok bool) {
	sess := s.sessions.get(id)
	if sess == nil {
		return nil, 0, 0, false
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.lastTopo != nil {
		topo = &blueprint.Topology{
			N:   sess.lastTopo.N,
			HTs: append([]blueprint.HiddenTerminal(nil), sess.lastTopo.HTs...),
		}
	}
	return topo, sess.digest, sess.win.Epoch(), true
}

// SeedSessionBlueprint installs topo as session id's warm-start seed,
// creating the session over n clients if absent. It changes only the
// seed the next session-keyed inference starts from (and hence its
// cache key) — measurements, digest, and already-minted cache entries
// are untouched, so seeding never invalidates a served result. Returns
// false when the session already carries an identical seed (the
// exchange layer's dedup signal). The topology is copied before
// normalization; the caller's value is not mutated.
func (s *Server) SeedSessionBlueprint(id string, n int, topo *blueprint.Topology) (updated bool, err error) {
	if topo == nil {
		return false, fmt.Errorf("serve: nil seed blueprint")
	}
	if topo.N != n {
		return false, fmt.Errorf("serve: seed blueprint has n=%d, session wants n=%d", topo.N, n)
	}
	seed := &blueprint.Topology{N: topo.N, HTs: append([]blueprint.HiddenTerminal(nil), topo.HTs...)}
	if err := seed.Validate(); err != nil {
		return false, fmt.Errorf("serve: seed blueprint: %w", err)
	}
	seed = seed.Normalize()
	sess, err := s.openSession(id, n)
	if err != nil {
		return false, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if topologiesEqual(sess.lastTopo, seed) {
		return false, nil
	}
	sess.lastTopo = seed
	return true, nil
}

// topologiesEqual compares two normalized topologies exactly.
func topologiesEqual(a, b *blueprint.Topology) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.N != b.N || len(a.HTs) != len(b.HTs) {
		return false
	}
	for k := range a.HTs {
		if a.HTs[k].Q != b.HTs[k].Q || a.HTs[k].Clients != b.HTs[k].Clients {
			return false
		}
	}
	return true
}

// Abort simulates an abrupt kill (kill -9) in-process: the listener
// closes mid-flight, the durability layer stops without a final
// snapshot or WAL sync (persist.Store.Abort), and the worker pool is
// torn down. Nothing is flushed — recovery must come from the last
// durable snapshot plus the synced WAL prefix, exactly as after a real
// crash. The server is unusable afterwards; do not call Drain on an
// aborted server.
func (s *Server) Abort() {
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	if s.store != nil {
		close(s.snapStop)
		<-s.snapDone
		s.store.Abort()
	}
	s.drainMu.Lock()
	s.draining = true
	s.closing = true
	s.drainMu.Unlock()
	s.jobs.Wait()
	close(s.queue)
	<-s.poolDone
}

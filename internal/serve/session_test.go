package serve

import (
	"testing"

	"blu/internal/access"
)

// len returns the live session count.
func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ll.Len()
}

// len returns the result cache's entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// TestSessionStoreDegenerateBoundNeverEvictsFresh is the regression
// test for the getOrCreate self-eviction: with max=0 the eviction loop
// used to push out the session it had just created, returning a caller-
// visible *session that was simultaneously the evicted one — its minted
// keys were dropped while the observe proceeded to fold into it.
func TestSessionStoreDegenerateBoundNeverEvictsFresh(t *testing.T) {
	for _, max := range []int{-3, 0, 1} {
		st := newSessionStore(max, 4)
		s, evicted, err := st.getOrCreate("a", 3)
		if err != nil {
			t.Fatalf("max=%d: getOrCreate: %v", max, err)
		}
		if s == nil {
			t.Fatalf("max=%d: nil session", max)
		}
		if evicted != nil {
			t.Fatalf("max=%d: first create evicted session %q (self-eviction)", max, evicted.id)
		}
		if got := st.get("a"); got != s {
			t.Fatalf("max=%d: created session is not live in the registry", max)
		}
		// A degenerate bound clamps to one live session: creating a second
		// evicts the first, never the one just created.
		s2, evicted, err := st.getOrCreate("b", 3)
		if err != nil {
			t.Fatalf("max=%d: second getOrCreate: %v", max, err)
		}
		if evicted == nil || evicted.id != "a" {
			t.Fatalf("max=%d: expected %q evicted, got %+v", max, "a", evicted)
		}
		if got := st.get("b"); got != s2 {
			t.Fatalf("max=%d: second session not live after eviction", max)
		}
		if st.len() != 1 {
			t.Fatalf("max=%d: registry holds %d sessions, want 1", max, st.len())
		}
	}
}

// TestSessionStoreGetOrCreateExistingKeepsBound checks the regular LRU
// path still evicts strictly the least-recently-used session once the
// bound is exceeded, and that refreshing an existing id never evicts.
func TestSessionStoreEvictsLRUOnly(t *testing.T) {
	st := newSessionStore(2, 4)
	mustCreate := func(id string) *session {
		t.Helper()
		s, _, err := st.getOrCreate(id, 3)
		if err != nil {
			t.Fatalf("getOrCreate(%q): %v", id, err)
		}
		return s
	}
	a := mustCreate("a")
	mustCreate("b")
	// Refresh "a" so "b" is the LRU.
	if s, evicted, err := st.getOrCreate("a", 3); err != nil || evicted != nil || s != a {
		t.Fatalf("refresh of existing session misbehaved: s=%p evicted=%v err=%v", s, evicted, err)
	}
	_, evicted, err := st.getOrCreate("c", 3)
	if err != nil {
		t.Fatal(err)
	}
	if evicted == nil || evicted.id != "b" {
		t.Fatalf("expected LRU %q evicted, got %+v", "b", evicted)
	}
}

// TestSessionStoreInstallOverflowCounted is the regression test for the
// silent restore drop: install refusing a record (full registry or
// duplicate id) must bump serve_session_restore_dropped_total and keep
// the sessions gauge in sync with the registry.
func TestSessionStoreInstallOverflowCounted(t *testing.T) {
	st := newSessionStore(2, 4)
	mk := func(id string) *session {
		return &session{id: id, win: access.NewWindow(3, 4), minted: map[uint64]struct{}{}}
	}
	dropped0 := obsSessionRestoreDropped.Value()
	if !st.install(mk("a")) || !st.install(mk("b")) {
		t.Fatal("installs within the bound refused")
	}
	if obsSessionRestoreDropped.Value() != dropped0 {
		t.Fatalf("successful installs counted as drops")
	}
	// Duplicate id: refused and counted.
	if st.install(mk("a")) {
		t.Fatal("duplicate install accepted")
	}
	if got := obsSessionRestoreDropped.Value(); got != dropped0+1 {
		t.Fatalf("duplicate drop not counted: %d, want %d", got, dropped0+1)
	}
	// Overflow: refused and counted; gauge reflects the live registry.
	if st.install(mk("c")) {
		t.Fatal("overflow install accepted")
	}
	if got := obsSessionRestoreDropped.Value(); got != dropped0+2 {
		t.Fatalf("overflow drop not counted: %d, want %d", got, dropped0+2)
	}
	if g := obsSessions.Value(); g != 2 {
		t.Fatalf("sessions gauge %v after refused installs, want 2", g)
	}
	if st.len() != 2 {
		t.Fatalf("registry holds %d sessions, want 2", st.len())
	}
}

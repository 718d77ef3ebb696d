package serve

import (
	"container/list"
	"fmt"
	"sync"

	"blu/internal/access"
	"blu/internal/blueprint"
	"blu/internal/obs"
)

var (
	obsSessions     = obs.GetGauge("serve_sessions")
	obsSessionEvict = obs.GetCounter("serve_session_evict_total")
)

// session is the server-side state of one streaming topology: the
// windowed estimator its /v1/observe batches fold into, the canonical
// digest of its current measurements, the blueprint last inferred from
// it (the warm seed for the next inference), and the set of result-
// cache keys minted from its measurements — the keys digest-delta
// invalidation removes when the measurements move.
//
// mu serializes all of it. Folds, digest updates, and invalidation
// happen under one critical section, so an infer snapshotting the
// session always sees measurements and digest in agreement.
type session struct {
	id string

	mu       sync.Mutex
	win      *access.Window
	digest   uint64
	lastTopo *blueprint.Topology
	minted   map[uint64]struct{}
}

// sessionStore is the bounded LRU registry of live sessions. Observing
// creates or refreshes a session; creating one past the bound evicts
// the least-recently-used session, whose minted cache keys the caller
// must drop (a dead session can no longer invalidate them).
type sessionStore struct {
	mu    sync.Mutex
	max   int
	win   int // window capacity (epochs) for new sessions
	ll    *list.List
	items map[string]*list.Element
}

func newSessionStore(max, windowEpochs int) *sessionStore {
	// A registry that cannot hold a single session is never what a
	// caller means: with max<1 getOrCreate would evict the session it
	// just created and hand the caller a dead *session whose minted keys
	// get dropped while the observe folds into it. Guard the bound here
	// so every code path below can assume max >= 1.
	if max < 1 {
		max = 1
	}
	return &sessionStore{
		max:   max,
		win:   windowEpochs,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// get returns the live session for id, refreshing its recency.
func (st *sessionStore) get(id string) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.items[id]
	if !ok {
		return nil
	}
	st.ll.MoveToFront(el)
	return el.Value.(*session)
}

// getOrCreate returns the session for id, creating it over n clients
// on first use. An existing session must agree on n — a topology id
// cannot silently change shape mid-stream. evicted, when non-nil, is a
// session pushed out by the bound; the caller owns dropping its minted
// cache keys.
func (st *sessionStore) getOrCreate(id string, n int) (s, evicted *session, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.items[id]; ok {
		s = el.Value.(*session)
		if s.win.N() != n {
			return nil, nil, fmt.Errorf("session %q has n=%d, request says n=%d", id, s.win.N(), n)
		}
		st.ll.MoveToFront(el)
		return s, nil, nil
	}
	s = &session{
		id:     id,
		win:    access.NewWindow(n, st.win),
		minted: make(map[uint64]struct{}),
	}
	// An empty window still has a canonical digest (the all-ones
	// no-evidence measurements), so the first observe can detect its own
	// change and infer-by-session works even before any fold.
	s.digest = digestMeasurements(s.win.Measurements())
	return s, st.pushFront(s), nil
}

// put installs s as the most recently used session, the way a restored
// or handed-off record arrives: a live session with the same id is
// replaced, and otherwise the least-recently-used session is evicted
// past the bound, exactly as when an observe creates one. It returns
// the session put displaced, whose minted cache keys the caller must
// drop.
func (st *sessionStore) put(s *session) (displaced *session) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.items[s.id]; ok {
		displaced = el.Value.(*session)
		el.Value = s
		st.ll.MoveToFront(el)
		return displaced
	}
	return st.pushFront(s)
}

// pushFront adds s, whose id is not live, as the most recently used
// session and evicts the least-recently-used one past the bound. With
// max >= 1 the evicted session is never s itself, so the session
// handed to the caller stays live. Callers hold st.mu.
func (st *sessionStore) pushFront(s *session) (evicted *session) {
	st.items[s.id] = st.ll.PushFront(s)
	if st.ll.Len() > st.max {
		back := st.ll.Back()
		st.ll.Remove(back)
		evicted = back.Value.(*session)
		delete(st.items, evicted.id)
		obsSessionEvict.Inc()
	}
	obsSessions.Set(float64(st.ll.Len()))
	return evicted
}

// remove detaches and returns the session for id, or nil. The caller
// owns dropping the detached session's minted cache keys — same
// contract as an eviction.
func (st *sessionStore) remove(id string) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.items[id]
	if !ok {
		return nil
	}
	st.ll.Remove(el)
	delete(st.items, id)
	obsSessions.Set(float64(st.ll.Len()))
	return el.Value.(*session)
}

// export returns every live session, least recently used first: the
// order snapshots and handoffs write records in, so putting them back in
// that order rebuilds the same recency.
func (st *sessionStore) export() []*session {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*session, 0, st.ll.Len())
	for el := st.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*session))
	}
	return out
}

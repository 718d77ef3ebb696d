package access

import (
	"math"
	"testing"
	"testing/quick"

	"blu/internal/blueprint"
	"blu/internal/rng"
)

// Capacity returns the maximum number of live epochs.
func (w *Window) Capacity() int { return len(w.epochs) }

// Live returns how many epochs currently back the estimate.
func (w *Window) Live() int { return w.live }

// TestFMinClampsK is the regression for the missing K clamp: with K ≥ N
// every pair is covered by every subframe, so the bound is exactly the
// T-subframe floor. The unclamped formula divided by C(K,2) > C(N,2)
// and returned 1 for FMin(4, 8, 2).
func TestFMinClampsK(t *testing.T) {
	cases := []struct{ n, k, tt, want int }{
		{4, 8, 2, 2},   // pre-fix: 1
		{4, 4, 2, 2},   // K == N, same floor
		{4, 100, 7, 7}, // absurd K still floors at T
		{20, 30, 50, 50},
		{20, 8, 1, 7}, // the paper's anchor is unchanged
		{20, 8, 50, 340},
	}
	for _, c := range cases {
		if got := FMin(c.n, c.k, c.tt); got != c.want {
			t.Errorf("FMin(%d,%d,%d) = %d, want %d", c.n, c.k, c.tt, got, c.want)
		}
		if got := FMin(c.n, c.k, c.tt); got < c.tt {
			t.Errorf("FMin(%d,%d,%d) = %d below the T floor", c.n, c.k, c.tt, got)
		}
	}
}

// TestJointOverheadClampsSchedK mirrors the FMin regression for the
// joint-measurement bound: a per-subframe budget above N must behave
// like K = N, not dilute the denominator.
func TestJointOverheadClampsSchedK(t *testing.T) {
	cases := []struct{ n, schedK, tupleK, tt, want int }{
		{4, 8, 2, 3, 3},     // pre-fix: ⌈6/28·3⌉ = 1
		{4, 100, 4, 5, 5},   // whole-cell tuples, T floor
		{20, 4, 5, 10, 0},   // infeasible tuple stays 0
		{20, 8, 6, 1, 1385}, // the paper's anchor is unchanged
	}
	for _, c := range cases {
		if got := JointOverhead(c.n, c.schedK, c.tupleK, c.tt); got != c.want {
			t.Errorf("JointOverhead(%d,%d,%d,%d) = %d, want %d",
				c.n, c.schedK, c.tupleK, c.tt, got, c.want)
		}
	}
	if JointOverhead(4, 9, 2, 3) != FMin(4, 9, 3) {
		t.Error("clamped k=2 joint overhead disagrees with clamped FMin")
	}
}

// TestEstimatorRecordDeduplicates is the regression for the duplicate
// grant-list bug: a duplicated index made the subframe count twice in
// the marginal ratios, so subframes with malformed grant lists
// outweighed honest ones. Client 0 accessed in one of its two
// scheduled subframes, so p(0) must be 1/2; the pre-fix estimator
// weighted the duplicated (accessed) subframe double and reported 2/3.
func TestEstimatorRecordDeduplicates(t *testing.T) {
	e := NewEstimator(2)
	e.Record([]int{0, 0}, blueprint.NewClientSet(0))
	e.Record([]int{0}, blueprint.NewClientSet())
	if got := e.schedI[0]; got != 2 {
		t.Fatalf("schedI[0] = %d, want 2 (duplicate grant folded)", got)
	}
	m := e.Measurements()
	if math.Abs(m.P[0]-0.5) > 1e-9 {
		t.Errorf("p(0) = %v, want 0.5 — duplicated grant list biased the marginal", m.P[0])
	}

	// The degenerate pair from a duplicated index must not touch the
	// diagonal, and a real pair must be counted once per subframe.
	e2 := NewEstimator(3)
	e2.Record([]int{1, 1, 2}, blueprint.NewClientSet(1, 2))
	if e2.schedIJ[1][1] != 0 {
		t.Errorf("schedIJ[1][1] = %d, want 0 (diagonal must stay unused)", e2.schedIJ[1][1])
	}
	if e2.Samples(1, 2) != 1 {
		t.Errorf("Samples(1,2) = %d, want 1", e2.Samples(1, 2))
	}
}

// TestEstimatorRecordIgnoresOutOfRange: the wire path makes the grant
// list untrusted input, so out-of-range indices must be dropped, not
// panic the estimator.
func TestEstimatorRecordIgnoresOutOfRange(t *testing.T) {
	e := NewEstimator(3)
	e.Record([]int{-1, 99, 0, 64}, blueprint.NewClientSet(0))
	if e.schedI[0] != 1 || e.accessI[0] != 1 {
		t.Errorf("client 0 counts = (%d,%d), want (1,1)", e.schedI[0], e.accessI[0])
	}
	if e.schedI[1] != 0 || e.schedI[2] != 0 {
		t.Error("out-of-range indices leaked into other clients")
	}
}

// randomObservations draws a deterministic stream of (scheduled,
// accessed) observations, including hostile shapes: duplicates,
// out-of-range indices, accessed clients that were never scheduled.
func randomObservations(r *rng.Source, n, count int) [][2]interface{} {
	obs := make([][2]interface{}, 0, count)
	for o := 0; o < count; o++ {
		k := 1 + r.Intn(n+2)
		sched := make([]int, 0, k)
		for len(sched) < k {
			v := r.Intn(n+4) - 2
			sched = append(sched, v)
		}
		var acc blueprint.ClientSet
		for i := 0; i < n; i++ {
			if r.Bool(0.4) {
				acc = acc.Add(i)
			}
		}
		obs = append(obs, [2]interface{}{sched, acc})
	}
	return obs
}

// TestWindowMatchesBatchEstimator is the windowed-vs-batch equivalence
// property: with capacity large enough that nothing is evicted, a
// Window folding a stream (across any epoch boundaries) produces the
// exact Measurements of a batch Estimator fed the same stream.
func TestWindowMatchesBatchEstimator(t *testing.T) {
	prop := func(seed uint64, nRaw uint8, advEvery uint8) bool {
		n := 2 + int(nRaw)%10
		r := rng.New(seed)
		stream := randomObservations(r, n, 60)
		w := NewWindow(n, 100) // more epochs than Advances: no eviction
		e := NewEstimator(n)
		for o, ob := range stream {
			sched, acc := ob[0].([]int), ob[1].(blueprint.ClientSet)
			w.Fold(sched, acc)
			e.Record(sched, acc)
			// Widen before incrementing: advEvery+1 in uint8 wraps 255 to
			// 0 and the modulo would panic.
			if advEvery > 0 && o%(int(advEvery)+1) == 0 {
				if w.Advance() {
					return false // must not evict under this capacity
				}
			}
		}
		wm, em := w.Measurements(), e.Measurements()
		for i := 0; i < n; i++ {
			if wm.P[i] != em.P[i] {
				return false
			}
			for j := i + 1; j < n; j++ {
				if wm.Pair(i, j) != em.Pair(i, j) {
					return false
				}
				if w.Samples(i, j) != e.Samples(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestWindowEviction: once the ring wraps, the aggregate equals a batch
// estimator fed only the observations of the live epochs — retired
// evidence is subtracted exactly, not approximately.
func TestWindowEviction(t *testing.T) {
	const n, capacity = 5, 3
	r := rng.New(0xE71C)
	w := NewWindow(n, capacity)
	var epochs [][][2]interface{}
	for ep := 0; ep < 8; ep++ {
		stream := randomObservations(r.SplitIndex("epoch", ep), n, 7)
		epochs = append(epochs, stream)
		for _, ob := range stream {
			w.Fold(ob[0].([]int), ob[1].(blueprint.ClientSet))
		}
		if ep < 7 {
			evicted := w.Advance()
			if want := ep >= capacity-1; evicted != want {
				t.Fatalf("Advance after epoch %d: evicted=%v, want %v", ep, evicted, want)
			}
		}
	}
	if w.Live() != capacity {
		t.Fatalf("Live() = %d, want %d", w.Live(), capacity)
	}

	// Replay only the last `capacity` epochs into a batch estimator.
	e := NewEstimator(n)
	for _, stream := range epochs[len(epochs)-capacity:] {
		for _, ob := range stream {
			e.Record(ob[0].([]int), ob[1].(blueprint.ClientSet))
		}
	}
	wm, em := w.Measurements(), e.Measurements()
	for i := 0; i < n; i++ {
		if wm.P[i] != em.P[i] {
			t.Errorf("P[%d]: window %v != batch-of-live-epochs %v", i, wm.P[i], em.P[i])
		}
		for j := i + 1; j < n; j++ {
			if wm.Pair(i, j) != em.Pair(i, j) {
				t.Errorf("pair (%d,%d): window %v != batch %v", i, j, wm.Pair(i, j), em.Pair(i, j))
			}
		}
	}
}

func TestWindowFreshness(t *testing.T) {
	w := NewWindow(4, 8)
	if got := w.Freshness(0, 1); got != -1 {
		t.Errorf("unseen pair freshness = %d, want -1", got)
	}
	w.Fold([]int{0, 1}, blueprint.NewClientSet(0))
	if got := w.Freshness(1, 0); got != 0 {
		t.Errorf("current-epoch freshness = %d, want 0", got)
	}
	w.Advance()
	w.Advance()
	if got := w.Freshness(0, 1); got != 2 {
		t.Errorf("freshness after two Advances = %d, want 2", got)
	}
	if got := w.Freshness(2, 3); got != -1 {
		t.Errorf("still-unseen pair freshness = %d, want -1", got)
	}
	if got := w.Freshness(0, 99); got != -1 {
		t.Errorf("out-of-range freshness = %d, want -1", got)
	}
	if got := w.Freshness(0, 0); got != 2 {
		t.Errorf("marginal freshness = %d, want 2", got)
	}
}

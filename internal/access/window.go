// The windowed estimator: a fixed-capacity ring of observation epochs
// over a plain Estimator, so streaming ingestion (the /v1/observe path)
// can age old evidence out instead of discarding everything with a
// global Reset. An epoch is a batch of observations that expire
// together; sealing the current epoch (Advance) retires the oldest one
// once the ring is full by subtracting its observations from the
// aggregate — the estimate is always exactly the estimate over the
// epochs still in the window.
package access

import (
	"math/bits"

	"blu/internal/blueprint"
	"blu/internal/obs"
)

var obsWindowEvict = obs.GetCounter("access_window_evict_total")

// windowObs is one canonical observation with a repeat count: identical
// (scheduled, accessed) outcomes within an epoch collapse into one
// entry, so an epoch stores O(distinct outcomes), not O(subframes).
type windowObs struct {
	sched    blueprint.ClientSet
	accessed blueprint.ClientSet
	count    int
}

// windowEpoch is one ring slot: the observations folded since the
// previous Advance.
type windowEpoch struct {
	entries []windowObs
}

// Window is a fixed-capacity ring of observation epochs with an
// incrementally maintained aggregate Estimator. Fold adds evidence to
// the current epoch; Advance seals it and, once the ring is full,
// evicts the oldest epoch from the aggregate. Measurements therefore
// always reflects exactly the observations of the live epochs — with a
// capacity large enough to hold every epoch, a Window is
// observation-for-observation equivalent to a batch Estimator.
//
// Window is not safe for concurrent use; serve sessions serialize
// access with a per-session lock.
type Window struct {
	n      int
	agg    *Estimator
	epochs []windowEpoch
	head   int // ring index of the oldest live epoch
	live   int // live epochs, including the current one
	seq    int // id of the current epoch; increments on Advance

	// lastSeen[i][j] (i<j) is the epoch seq that last co-scheduled the
	// pair, -1 if never — the per-pair freshness signal.
	lastSeen [][]int
}

// NewWindow returns an empty window over n clients holding at most
// capacity epochs (capacity < 1 selects 64).
func NewWindow(n, capacity int) *Window {
	if capacity < 1 {
		capacity = 64
	}
	w := &Window{
		n:      n,
		agg:    NewEstimator(n),
		epochs: make([]windowEpoch, capacity),
		live:   1,
	}
	w.lastSeen = make([][]int, n)
	for i := range w.lastSeen {
		w.lastSeen[i] = make([]int, n)
		for j := range w.lastSeen[i] {
			w.lastSeen[i][j] = -1
		}
	}
	return w
}

// N returns the client count the window was built for.
func (w *Window) N() int { return w.n }

// Epoch returns the id of the current (unsealed) epoch.
func (w *Window) Epoch() int { return w.seq }

// Fold adds one subframe observation to the current epoch and the
// aggregate. The grant list is canonicalized exactly like
// Estimator.Record (duplicates folded, out-of-range dropped); Fold
// reports how many distinct scheduled clients were counted, 0 meaning
// the observation carried no usable evidence.
func (w *Window) Fold(scheduled []int, accessed blueprint.ClientSet) int {
	set := scheduledSet(scheduled, w.n)
	if set.Empty() {
		return 0
	}
	w.agg.recordSet(set, accessed, 1)

	ep := &w.epochs[w.cur()]
	merged := false
	for k := range ep.entries {
		if ep.entries[k].sched == set && ep.entries[k].accessed == accessed {
			ep.entries[k].count++
			merged = true
			break
		}
	}
	if !merged {
		ep.entries = append(ep.entries, windowObs{sched: set, accessed: accessed, count: 1})
	}

	for v := uint64(set); v != 0; v &= v - 1 {
		a := bits.TrailingZeros64(v)
		w.lastSeen[a][a] = w.seq
		for x := v & (v - 1); x != 0; x &= x - 1 {
			w.lastSeen[a][bits.TrailingZeros64(x)] = w.seq
		}
	}
	return set.Count()
}

// Advance seals the current epoch and opens a fresh one. When the ring
// is already full the oldest epoch is evicted first: its observations
// are subtracted from the aggregate and the eviction is counted on
// access_window_evict_total. Reports whether an eviction happened.
func (w *Window) Advance() bool {
	evicted := false
	if w.live == len(w.epochs) {
		old := &w.epochs[w.head]
		for _, o := range old.entries {
			w.agg.recordSet(o.sched, o.accessed, -o.count)
		}
		old.entries = old.entries[:0]
		w.head = (w.head + 1) % len(w.epochs)
		w.live--
		evicted = true
		if obs.Enabled() {
			obsWindowEvict.Inc()
		}
	}
	w.live++
	w.seq++
	w.epochs[w.cur()].entries = w.epochs[w.cur()].entries[:0]
	return evicted
}

// cur returns the ring index of the current epoch.
func (w *Window) cur() int { return (w.head + w.live - 1) % len(w.epochs) }

// Freshness returns how many epochs ago the pair (i, j) was last
// co-scheduled (0 = in the current epoch), or -1 if it has never been
// observed or the indices are out of range. For i == j it reports the
// client's own scheduling freshness.
func (w *Window) Freshness(i, j int) int {
	if i < 0 || j < 0 || i >= w.n || j >= w.n {
		return -1
	}
	if i > j {
		i, j = j, i
	}
	last := w.lastSeen[i][j]
	if last < 0 {
		return -1
	}
	return w.seq - last
}

// Samples reports the pair's co-scheduling count over the live epochs,
// mirroring Estimator.Samples.
func (w *Window) Samples(i, j int) int { return w.agg.Samples(i, j) }

// Measurements produces the access distributions estimated from the
// live epochs, with the same fallbacks and clamping as
// Estimator.Measurements.
func (w *Window) Measurements() *blueprint.Measurements { return w.agg.Measurements() }

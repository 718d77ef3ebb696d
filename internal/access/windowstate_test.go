package access

import (
	"hash/fnv"
	"math"
	"testing"

	"blu/internal/blueprint"
	"blu/internal/rng"
)

// measurementDigest is a test-local FNV-1a fingerprint of the full
// measurement content, so "digest-identical" assertions here mean the
// same thing serve's canonical digest means without importing it.
func measurementDigest(m *blueprint.Measurements) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(m.N))
	for i := 0; i < m.N; i++ {
		put(math.Float64bits(m.P[i]))
	}
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			put(math.Float64bits(m.Pair(i, j)))
		}
	}
	return h.Sum64()
}

// requireWindowsEqual asserts the two windows are observationally
// identical: measurement digest, sample counts, freshness at every
// pair, and ring geometry.
func requireWindowsEqual(t *testing.T, label string, a, b *Window) {
	t.Helper()
	if a.N() != b.N() || a.Capacity() != b.Capacity() || a.Epoch() != b.Epoch() || a.Live() != b.Live() {
		t.Fatalf("%s: geometry mismatch: N %d/%d cap %d/%d epoch %d/%d live %d/%d",
			label, a.N(), b.N(), a.Capacity(), b.Capacity(), a.Epoch(), b.Epoch(), a.Live(), b.Live())
	}
	if da, db := measurementDigest(a.Measurements()), measurementDigest(b.Measurements()); da != db {
		t.Fatalf("%s: measurement digest %016x != %016x", label, da, db)
	}
	for i := 0; i < a.N(); i++ {
		for j := i; j < a.N(); j++ {
			if a.Freshness(i, j) != b.Freshness(i, j) {
				t.Fatalf("%s: freshness(%d,%d) %d != %d", label, i, j, a.Freshness(i, j), b.Freshness(i, j))
			}
			if a.Samples(i, j) != b.Samples(i, j) {
				t.Fatalf("%s: samples(%d,%d) %d != %d", label, i, j, a.Samples(i, j), b.Samples(i, j))
			}
		}
	}
}

// driveWindow folds a deterministic observation stream into w: ops
// pseudo-random subframes with an Advance every sealEvery folds.
func driveWindow(w *Window, r *rng.Source, ops, sealEvery int) {
	n := w.N()
	for k := 0; k < ops; k++ {
		var sched []int
		var accessed blueprint.ClientSet
		for c := 0; c < n; c++ {
			if r.Bool(0.6) {
				sched = append(sched, c)
				if r.Bool(0.7) {
					accessed = accessed.Add(c)
				}
			}
		}
		w.Fold(sched, accessed)
		if sealEvery > 0 && (k+1)%sealEvery == 0 {
			w.Advance()
		}
	}
}

// TestWindowExportImportRingPositions is the satellite acceptance test:
// export/import round-trips at every interesting ring position — a
// partially filled ring, an exactly full ring, and a ring that has
// already evicted (so freshness survives from epochs no longer live) —
// and the restored window keeps evolving identically under further
// folds and seals.
func TestWindowExportImportRingPositions(t *testing.T) {
	cases := []struct {
		name                string
		n, capacity         int
		ops, sealEvery      int
		extraOps, extraSeal int
	}{
		{"partial", 5, 8, 12, 5, 9, 4},
		{"exactly-full", 4, 4, 20, 5, 7, 3}, // live == capacity, no eviction yet
		{"post-evict", 6, 3, 40, 4, 13, 2},  // ring wrapped, evictions happened
		{"single-epoch", 3, 1, 9, 3, 5, 2},  // every seal evicts
		{"never-sealed", 7, 6, 15, 0, 6, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := NewWindow(c.n, c.capacity)
			driveWindow(w, rng.New(11).Split(c.name), c.ops, c.sealEvery)

			st := w.Export()
			got, err := ImportWindow(st)
			if err != nil {
				t.Fatalf("import: %v", err)
			}
			requireWindowsEqual(t, "after import", w, got)

			// Re-export stability: exporting the restored window yields a
			// state that imports to the same thing again.
			st2 := got.Export()
			got2, err := ImportWindow(st2)
			if err != nil {
				t.Fatalf("re-import: %v", err)
			}
			requireWindowsEqual(t, "after re-import", w, got2)

			// The restored window must evolve identically: same folds and
			// seals applied to both stay digest-identical.
			r1 := rng.New(99).Split(c.name)
			r2 := rng.New(99).Split(c.name)
			driveWindow(w, r1, c.extraOps, c.extraSeal)
			driveWindow(got, r2, c.extraOps, c.extraSeal)
			requireWindowsEqual(t, "after continued folding", w, got)
		})
	}
}

// TestWindowExportIsDetached proves Export's result shares no state
// with the live window: folding after Export must not change the
// exported snapshot.
func TestWindowExportIsDetached(t *testing.T) {
	w := NewWindow(4, 3)
	driveWindow(w, rng.New(5), 10, 3)
	st := w.Export()
	before, err := ImportWindow(st)
	if err != nil {
		t.Fatal(err)
	}
	digestBefore := measurementDigest(before.Measurements())
	driveWindow(w, rng.New(6), 10, 2)
	after, err := ImportWindow(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := measurementDigest(after.Measurements()); got != digestBefore {
		t.Fatalf("export mutated by later folds: %016x != %016x", got, digestBefore)
	}
}

// TestImportWindowRejectsInvalid is the validation table: every
// structurally broken state errors instead of building a window whose
// ring and aggregate disagree.
func TestImportWindowRejectsInvalid(t *testing.T) {
	valid := func() *WindowState {
		w := NewWindow(3, 4)
		driveWindow(w, rng.New(2), 8, 3)
		return w.Export()
	}
	cases := []struct {
		name   string
		break_ func(*WindowState)
	}{
		{"nil-everything", func(st *WindowState) { *st = WindowState{} }},
		{"n-zero", func(st *WindowState) { st.N = 0 }},
		{"n-over-max", func(st *WindowState) { st.N = blueprint.MaxClients + 1 }},
		{"capacity-zero", func(st *WindowState) { st.Capacity = 0 }},
		{"no-epochs", func(st *WindowState) { st.Epochs = nil }},
		{"epochs-over-capacity", func(st *WindowState) {
			st.Epochs = append(st.Epochs, make([]WindowEpochState, st.Capacity)...)
		}},
		{"seq-below-live", func(st *WindowState) { st.Seq = len(st.Epochs) - 2 }},
		{"freshness-short", func(st *WindowState) { st.LastSeen = st.LastSeen[:1] }},
		{"freshness-future", func(st *WindowState) { st.LastSeen[0] = st.Seq + 1 }},
		{"freshness-below-never", func(st *WindowState) { st.LastSeen[0] = -2 }},
		{"entry-zero-count", func(st *WindowState) {
			st.Epochs[0].Entries = []WindowObs{{Scheduled: 1, Accessed: 0, Count: 0}}
		}},
		{"entry-empty-scheduled", func(st *WindowState) {
			st.Epochs[0].Entries = []WindowObs{{Scheduled: 0, Accessed: 0, Count: 1}}
		}},
		{"entry-out-of-range", func(st *WindowState) {
			st.Epochs[0].Entries = []WindowObs{{Scheduled: 1 << 60, Accessed: 0, Count: 1}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := valid()
			c.break_(st)
			if _, err := ImportWindow(st); err == nil {
				t.Fatal("import accepted a broken state")
			}
		})
	}
	if _, err := ImportWindow(nil); err == nil {
		t.Fatal("import accepted nil")
	}
}

// FuzzWindowExportImport drives a window through a byte-string-encoded
// op sequence, round-trips it, and requires digest/freshness equality —
// the satellite's fuzz form, reaching ring positions the table above
// does not enumerate.
func FuzzWindowExportImport(f *testing.F) {
	f.Add(uint64(1), 3, 4, []byte{0x3f, 0x80, 0xff, 0x00, 0x17})
	f.Add(uint64(7), 6, 2, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint64(42), 1, 1, []byte{0x00})
	f.Add(uint64(9), 8, 3, []byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70})
	f.Fuzz(func(t *testing.T, seed uint64, n, capacity int, ops []byte) {
		if n < 1 || n > blueprint.MaxClients || capacity < 1 || capacity > 16 || len(ops) > 256 {
			t.Skip()
		}
		w := NewWindow(n, capacity)
		r := rng.New(seed)
		for _, op := range ops {
			if op&1 == 1 {
				w.Advance()
				continue
			}
			var sched []int
			var accessed blueprint.ClientSet
			for c := 0; c < n; c++ {
				if (op>>(uint(c)%7))&2 != 0 || r.Bool(0.5) {
					sched = append(sched, c)
					if r.Bool(0.6) {
						accessed = accessed.Add(c)
					}
				}
			}
			w.Fold(sched, accessed)
		}
		got, err := ImportWindow(w.Export())
		if err != nil {
			t.Fatalf("export of a live window failed to import: %v", err)
		}
		requireWindowsEqual(t, "fuzz round trip", w, got)
	})
}

package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"blu/internal/faults"
)

// slowOpts makes group commit effectively manual: nothing hits disk
// until Flush/Rotate/Close, so tests control the durable boundary.
var slowOpts = Options{SyncInterval: time.Hour, MaxPending: 1 << 20}

type replayLog struct {
	lsns     []uint64
	payloads [][]byte
}

func (rl *replayLog) fn(lsn uint64, payload []byte) error {
	rl.lsns = append(rl.lsns, lsn)
	rl.payloads = append(rl.payloads, append([]byte(nil), payload...))
	return nil
}

func payload(i int) []byte { return []byte(fmt.Sprintf("observe-batch-%04d", i)) }

// openForTest opens a store and fails the test on error.
func openForTest(t *testing.T, dir string, opts Options, restore func([]byte) error, replay func(uint64, []byte) error) (*Store, *RecoverStats) {
	t.Helper()
	s, stats, err := Open(dir, opts, restore, replay)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s, stats
}

func TestAppendFlushReplay(t *testing.T) {
	dir := t.TempDir()
	s, stats := openForTest(t, dir, slowOpts, nil, nil)
	if stats.NextLSN != 1 || stats.SnapshotRecords != 0 || stats.WALReplayed != 0 {
		t.Fatalf("cold open stats: %+v", stats)
	}
	const n = 20
	for i := 0; i < n; i++ {
		lsn, err := s.Append(payload(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("append %d got lsn %d", i, lsn)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	var rl replayLog
	s2, stats := openForTest(t, dir, slowOpts, nil, rl.fn)
	defer s2.Close()
	if stats.WALReplayed != n || stats.CorruptDropped != 0 {
		t.Fatalf("recover stats: %+v", stats)
	}
	if stats.NextLSN != n+1 {
		t.Fatalf("next lsn %d, want %d", stats.NextLSN, n+1)
	}
	for i := 0; i < n; i++ {
		if rl.lsns[i] != uint64(i+1) || !bytes.Equal(rl.payloads[i], payload(i)) {
			t.Fatalf("replay %d: lsn %d payload %q", i, rl.lsns[i], rl.payloads[i])
		}
	}
	// The reopened store keeps assigning past the recovered stream.
	lsn, err := s2.Append(payload(n))
	if err != nil || lsn != n+1 {
		t.Fatalf("post-recovery append: lsn %d err %v", lsn, err)
	}
}

func TestAbortLosesOnlyUnsyncedWindow(t *testing.T) {
	dir := t.TempDir()
	s, _ := openForTest(t, dir, slowOpts, nil, nil)
	for i := 0; i < 5; i++ {
		if _, err := s.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// These five are acknowledged but never synced — the window a
	// kill -9 is allowed to lose.
	for i := 5; i < 10; i++ {
		if _, err := s.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Abort()

	var rl replayLog
	s2, stats := openForTest(t, dir, slowOpts, nil, rl.fn)
	defer s2.Close()
	if stats.WALReplayed != 5 {
		t.Fatalf("replayed %d, want the 5 synced records", stats.WALReplayed)
	}
	if stats.CorruptDropped != 0 {
		t.Fatalf("clean sync boundary counted %d corrupt", stats.CorruptDropped)
	}
	if stats.NextLSN != 6 {
		t.Fatalf("next lsn %d, want 6", stats.NextLSN)
	}
}

func TestMaxPendingForcesInlineFlush(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SyncInterval: time.Hour, MaxPending: 4}
	s, _ := openForTest(t, dir, opts, nil, nil)
	for i := 0; i < 9; i++ {
		if _, err := s.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Abort() // discards at most MaxPending-1 unsynced records

	var rl replayLog
	s2, stats := openForTest(t, dir, slowOpts, nil, rl.fn)
	defer s2.Close()
	if stats.WALReplayed < 8 {
		t.Fatalf("replayed %d; the bounded window allows at most %d lost", stats.WALReplayed, opts.MaxPending-1)
	}
}

func TestSnapshotCutReplayAndPrune(t *testing.T) {
	dir := t.TempDir()
	s, _ := openForTest(t, dir, slowOpts, nil, nil)
	for i := 0; i < 8; i++ {
		if _, err := s.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	cut, err := s.Rotate()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if cut != 9 {
		t.Fatalf("cut %d, want 9", cut)
	}
	image := [][]byte{[]byte("session-alpha"), []byte("session-beta")}
	if err := s.WriteSnapshot(cut, image); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// The pre-cut segment must be pruned, the live one kept.
	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); !os.IsNotExist(err) {
		t.Fatalf("pre-cut segment not pruned: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(cut))); err != nil {
		t.Fatalf("live segment missing: %v", err)
	}
	for i := 8; i < 12; i++ {
		if _, err := s.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var restored [][]byte
	var rl replayLog
	s2, stats := openForTest(t, dir,
		slowOpts,
		func(rec []byte) error {
			restored = append(restored, append([]byte(nil), rec...))
			return nil
		}, rl.fn)
	defer s2.Close()
	if stats.SnapshotRecords != 2 || stats.Cut != cut {
		t.Fatalf("snapshot recovery: %+v", stats)
	}
	if len(restored) != 2 || !bytes.Equal(restored[0], image[0]) || !bytes.Equal(restored[1], image[1]) {
		t.Fatalf("restored %q", restored)
	}
	if stats.WALReplayed != 4 {
		t.Fatalf("replayed %d post-cut records, want 4", stats.WALReplayed)
	}
	for i, lsn := range rl.lsns {
		if lsn != cut+uint64(i) {
			t.Fatalf("replay %d at lsn %d, want %d", i, lsn, cut+uint64(i))
		}
	}
}

func TestCrashBetweenRotateAndSnapshotIsSafe(t *testing.T) {
	dir := t.TempDir()
	s, _ := openForTest(t, dir, slowOpts, nil, nil)
	for i := 0; i < 6; i++ {
		if _, err := s.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	// Crash here: rotated but never snapshotted. Both segments survive
	// and the whole stream replays.
	s.Abort()

	var rl replayLog
	s2, stats := openForTest(t, dir, slowOpts, nil, rl.fn)
	defer s2.Close()
	if stats.WALReplayed != 6 || stats.CorruptDropped != 0 {
		t.Fatalf("recovery after un-snapshotted rotate: %+v", stats)
	}
}

func TestRecoveryTornWrite(t *testing.T) {
	dir := t.TempDir()
	s, _ := openForTest(t, dir, slowOpts, nil, nil)
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := s.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 10; seed++ {
		torn := faults.TornWrite(seed, data)
		if err := os.WriteFile(seg, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		var rl replayLog
		s2, stats := openForTest(t, dir, slowOpts, nil, rl.fn)
		// Recovery opened a fresh tail segment; drop it so the next seed
		// re-tears the same original bytes.
		s2.Abort()
		os.Remove(filepath.Join(dir, segmentName(stats.NextLSN)))
		if stats.WALReplayed >= n {
			t.Fatalf("seed %d: torn file replayed all %d records", seed, stats.WALReplayed)
		}
		if stats.CorruptDropped == 0 {
			t.Fatalf("seed %d: tear not counted", seed)
		}
		// The surviving prefix must be exact: record i is payload(i).
		for i, p := range rl.payloads {
			if !bytes.Equal(p, payload(i)) {
				t.Fatalf("seed %d: replay %d = %q, prefix broken", seed, i, p)
			}
		}
	}
}

// TestRecoveryTruncatedTail cuts up to five records off the end of a
// segment (a filesystem that gave back less than was acknowledged), so
// cuts land on record boundaries and inside records alike. Recovery
// must replay exactly the records wholly inside the kept prefix, byte
// for byte, and count a record cut in half as damage.
func TestRecoveryTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := openForTest(t, dir, slowOpts, nil, nil)
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := s.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recordLen := len(appendWALRecord(nil, 1, payload(0)))
	if len(data) != walHeaderLen+n*recordLen {
		t.Fatalf("segment is %d bytes, want header + %d records of %d", len(data), n, recordLen)
	}
	partial := 0
	for seed := uint64(1); seed <= 20; seed++ {
		cut := faults.Truncate(seed, data, 5*recordLen)
		if err := os.WriteFile(seg, cut, 0o644); err != nil {
			t.Fatal(err)
		}
		var rl replayLog
		s2, stats := openForTest(t, dir, slowOpts, nil, rl.fn)
		s2.Abort()
		os.Remove(filepath.Join(dir, segmentName(stats.NextLSN)))

		whole := (len(cut) - walHeaderLen) / recordLen
		torn := (len(cut)-walHeaderLen)%recordLen != 0
		if stats.WALReplayed != whole || len(rl.payloads) != whole {
			t.Fatalf("seed %d: kept %d bytes, replayed %d records, want the %d wholly kept", seed, len(cut), stats.WALReplayed, whole)
		}
		for i, p := range rl.payloads {
			if rl.lsns[i] != uint64(i+1) || !bytes.Equal(p, payload(i)) {
				t.Fatalf("seed %d: replay %d = lsn %d %q, want lsn %d %q", seed, i, rl.lsns[i], p, i+1, payload(i))
			}
		}
		wantDropped := 0
		if torn {
			wantDropped = 1
			partial++
		}
		if stats.CorruptDropped != wantDropped {
			t.Fatalf("seed %d: cut inside a record = %v, CorruptDropped = %d, want %d", seed, torn, stats.CorruptDropped, wantDropped)
		}
	}
	if partial == 0 {
		t.Fatal("no seed cut inside a record")
	}
}

func TestRecoverySkipsBitFlippedRecordInPlace(t *testing.T) {
	// Hand-build a segment and flip one payload byte of the second
	// record: recovery must skip exactly that record and keep the rest.
	dir := t.TempDir()
	b := appendWALHeader(nil, 1)
	offs := []int{}
	for i := 0; i < 4; i++ {
		offs = append(offs, len(b))
		b = appendWALRecord(b, uint64(i+1), payload(i))
	}
	b[offs[1]+12] ^= 0x40 // first payload byte of record lsn=2
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), b, 0o644); err != nil {
		t.Fatal(err)
	}

	var rl replayLog
	s, stats := openForTest(t, dir, slowOpts, nil, rl.fn)
	defer s.Close()
	if stats.WALReplayed != 3 || stats.CorruptDropped != 1 {
		t.Fatalf("stats %+v, want 3 replayed / 1 dropped", stats)
	}
	wantLSNs := []uint64{1, 3, 4}
	for i, lsn := range rl.lsns {
		if lsn != wantLSNs[i] {
			t.Fatalf("replayed lsns %v, want %v", rl.lsns, wantLSNs)
		}
	}
	if stats.NextLSN != 5 {
		t.Fatalf("next lsn %d, want 5 (skipped lsn stays consumed)", stats.NextLSN)
	}
}

func TestRecoveryBitFlipsNeverPanic(t *testing.T) {
	dir := t.TempDir()
	s, _ := openForTest(t, dir, slowOpts, nil, nil)
	const n = 25
	for i := 0; i < n; i++ {
		if _, err := s.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 25; seed++ {
		if err := os.WriteFile(seg, faults.BitFlip(seed, data, 3), 0o644); err != nil {
			t.Fatal(err)
		}
		var rl replayLog
		s2, stats := openForTest(t, dir, slowOpts, nil, rl.fn)
		s2.Abort()
		os.Remove(filepath.Join(dir, segmentName(stats.NextLSN)))
		if stats.WALReplayed == n && stats.CorruptDropped == 0 {
			t.Fatalf("seed %d: 3 bit flips left recovery spotless", seed)
		}
		// Every record that did replay must be verbatim.
		for i, lsn := range rl.lsns {
			if !bytes.Equal(rl.payloads[i], payload(int(lsn-1))) {
				t.Fatalf("seed %d: lsn %d replayed corrupted payload", seed, lsn)
			}
		}
	}
}

func TestRecoverySnapshotDamage(t *testing.T) {
	recA, recB, recC := []byte("session-a"), []byte("session-b"), []byte("session-c")
	image := encodeSnapshot(7, [][]byte{recA, recB, recC})

	t.Run("flipped-record", func(t *testing.T) {
		dir := t.TempDir()
		damaged := append([]byte(nil), image...)
		// Second record's payload starts after header(20) + rec A's v2
		// frame (len + payload + tlvLen + crc) + rec B's len field.
		off := snapshotHeaderLen + 4 + 10 + len(recA) + 4
		damaged[off] ^= 0x01
		if err := os.WriteFile(filepath.Join(dir, SnapshotFile), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		var restored [][]byte
		s, stats := openForTest(t, dir, slowOpts, func(rec []byte) error {
			restored = append(restored, append([]byte(nil), rec...))
			return nil
		}, nil)
		defer s.Close()
		if stats.SnapshotRecords != 2 || stats.CorruptDropped < 1 {
			t.Fatalf("stats %+v", stats)
		}
		if !bytes.Equal(restored[0], recA) || !bytes.Equal(restored[1], recC) {
			t.Fatalf("restored %q", restored)
		}
		if stats.Cut != 7 {
			t.Fatalf("cut %d survived as %d", 7, stats.Cut)
		}
	})

	t.Run("truncated-tail", func(t *testing.T) {
		dir := t.TempDir()
		cutoff := len(image) - len(recC) - 6 // inside the last record
		if err := os.WriteFile(filepath.Join(dir, SnapshotFile), image[:cutoff], 0o644); err != nil {
			t.Fatal(err)
		}
		var restored int
		s, stats := openForTest(t, dir, slowOpts, func([]byte) error { restored++; return nil }, nil)
		defer s.Close()
		if restored != 2 || stats.CorruptDropped < 1 {
			t.Fatalf("restored %d, stats %+v", restored, stats)
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		dir := t.TempDir()
		damaged := append([]byte(nil), image...)
		damaged[0] ^= 0xff
		if err := os.WriteFile(filepath.Join(dir, SnapshotFile), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		s, stats := openForTest(t, dir, slowOpts, func([]byte) error {
			t.Fatal("restore called for an unreadable snapshot")
			return nil
		}, nil)
		defer s.Close()
		if stats.SnapshotRecords != 0 || stats.CorruptDropped == 0 {
			t.Fatalf("stats %+v", stats)
		}
	})
}

func TestRestoreCallbackErrorDropsRecordWhole(t *testing.T) {
	dir := t.TempDir()
	s, _ := openForTest(t, dir, slowOpts, nil, nil)
	for i := 0; i < 4; i++ {
		if _, err := s.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var applied []uint64
	s2, stats := openForTest(t, dir, slowOpts, nil, func(lsn uint64, _ []byte) error {
		if lsn == 2 {
			return fmt.Errorf("cannot apply")
		}
		applied = append(applied, lsn)
		return nil
	})
	defer s2.Close()
	if stats.WALReplayed != 3 || stats.CorruptDropped != 1 {
		t.Fatalf("stats %+v", stats)
	}
	if len(applied) != 3 {
		t.Fatalf("applied %v", applied)
	}
}

func TestLSNGapDropsTail(t *testing.T) {
	dir := t.TempDir()
	// Segment 1 holds lsns 1..3; segment 5 claims to start at 5 — lsn 4
	// is missing, so nothing from segment 5 may replay.
	b := appendWALHeader(nil, 1)
	for i := 0; i < 3; i++ {
		b = appendWALRecord(b, uint64(i+1), payload(i))
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), b, 0o644); err != nil {
		t.Fatal(err)
	}
	b2 := appendWALHeader(nil, 5)
	b2 = appendWALRecord(b2, 5, payload(4))
	if err := os.WriteFile(filepath.Join(dir, segmentName(5)), b2, 0o644); err != nil {
		t.Fatal(err)
	}
	var rl replayLog
	s, stats := openForTest(t, dir, slowOpts, nil, rl.fn)
	defer s.Close()
	if stats.WALReplayed != 3 {
		t.Fatalf("replayed %d across a gap", stats.WALReplayed)
	}
	if stats.CorruptDropped == 0 {
		t.Fatal("gap not counted")
	}
}

func TestRotateUnderConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s, _ := openForTest(t, dir, Options{SyncInterval: time.Millisecond, MaxPending: 8}, nil, nil)
	const workers, perWorker = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := s.Append([]byte(fmt.Sprintf("w%d-%04d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 5; r++ {
		if _, err := s.Rotate(); err != nil {
			t.Fatalf("rotate %d: %v", r, err)
		}
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var rl replayLog
	s2, stats := openForTest(t, dir, slowOpts, nil, rl.fn)
	defer s2.Close()
	if stats.WALReplayed != workers*perWorker {
		t.Fatalf("replayed %d, want %d", stats.WALReplayed, workers*perWorker)
	}
	if stats.CorruptDropped != 0 {
		t.Fatalf("clean concurrent run counted %d corrupt", stats.CorruptDropped)
	}
	// Replay order is LSN order, gapless from 1.
	for i, lsn := range rl.lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("lsn %d at position %d", lsn, i)
		}
	}
	// Per-worker append order is preserved as a subsequence.
	next := make([]int, workers)
	for _, p := range rl.payloads {
		var w, i int
		if _, err := fmt.Sscanf(string(p), "w%d-%d", &w, &i); err != nil {
			t.Fatalf("payload %q", p)
		}
		if i != next[w] {
			t.Fatalf("worker %d replayed %d before %d", w, i, next[w])
		}
		next[w]++
	}
}

func TestAppendAfterCloseErrors(t *testing.T) {
	dir := t.TempDir()
	s, _ := openForTest(t, dir, slowOpts, nil, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(payload(0)); err == nil {
		// The first append lands in memory; the flush boundary must
		// surface the closed store at the latest.
		if err := s.Flush(); err == nil {
			t.Fatal("append+flush after close succeeded")
		}
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := openForTest(t, dir, slowOpts, nil, nil)
	defer s.Close()
	if _, err := s.Append(make([]byte, maxRecordLen+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

// Package persist is blud's crash-safe durability layer: a versioned,
// checksummed snapshot image plus an append-only observe WAL, so a
// controller restart restores every live session digest-identically
// instead of dropping the fleet to cold inference (the re-measurement
// storm the §3.7 refresh loop exists to avoid).
//
// The contract, end to end:
//
//   - Append logs one opaque payload (an encoded observe batch) and
//     assigns it the next LSN. Appends land in an in-memory buffer; a
//     background syncer group-commits the buffer to the live segment
//     on SyncInterval, and only when more than MaxPending appends are
//     waiting does an append flush inline — the hot path never pays a
//     per-request fsync, and a kill -9 loses at most that bounded
//     unsynced window.
//   - Rotate seals the live segment (flush + fsync) and opens the
//     next, returning the cut: the first LSN the new segment will
//     carry. WriteSnapshot then persists the state image labeled with
//     that cut atomically, and prunes every segment the snapshot
//     supersedes. Crashing anywhere between those steps is safe — the
//     previous snapshot plus the surviving segments still replay to
//     the same state, because a segment is only deleted once the
//     snapshot that covers it is durably in place.
//   - Open runs recovery: restore every snapshot record, replay every
//     WAL record at or past the cut in LSN order, then start a fresh
//     segment after the highest LSN seen. Corrupt records (torn
//     writes, truncation, bit flips — see internal/faults' file
//     injectors) are skipped exactly and counted on
//     persist_corrupt_dropped_total; recovery never panics and never
//     delivers a record whose checksum failed.
package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"blu/internal/obs"
)

// Recovery and durability telemetry. Recovered counts every record
// restored on boot (snapshot records + WAL replays); corrupt-dropped
// counts records and damage events recovery had to skip.
var (
	obsRecovered  = obs.GetCounter("persist_recovered_total")
	obsCorrupt    = obs.GetCounter("persist_corrupt_dropped_total")
	obsSnapshots  = obs.GetCounter("persist_snapshots_total")
	obsWALAppends = obs.GetCounter("persist_wal_appends_total")
	obsWALSyncs   = obs.GetCounter("persist_wal_syncs_total")
)

// Options tune the group-commit window.
type Options struct {
	// SyncInterval is the group-commit period: how long an acknowledged
	// append may sit in memory before the syncer makes it durable.
	// Default 25ms.
	SyncInterval time.Duration
	// MaxPending bounds the unsynced in-flight window: an append that
	// would leave more than MaxPending records buffered flushes inline
	// instead. Default 256.
	MaxPending int
}

func (o Options) withDefaults() Options {
	if o.SyncInterval <= 0 {
		o.SyncInterval = 25 * time.Millisecond
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 256
	}
	return o
}

// ErrRetiredFormat is returned by Open when a snapshot or WAL segment
// carries an intact header of format version 1. This binary reads and
// writes v2 only; counting a v1 file as corruption would start the
// server empty and let the next snapshot/prune cycle overwrite it, so
// Open refuses instead and leaves the directory untouched.
var ErrRetiredFormat = errors.New("v1 state format is retired; commit d17bf46 is the last that reads it — open the directory once with that tree to rewrite it as v2")

// RecoverStats reports what Open found on disk.
type RecoverStats struct {
	SnapshotRecords int    // snapshot records successfully restored
	WALReplayed     int    // WAL records successfully replayed
	CorruptDropped  int    // records and damage events skipped
	Cut             uint64 // the loaded snapshot's WAL cut (0 = none)
	NextLSN         uint64 // first LSN the reopened store will assign
}

// Store is an open durability directory: the live WAL segment plus
// the snapshot protocol around it. Append/Flush are safe for
// concurrent use; Rotate and WriteSnapshot are the caller's
// checkpoint sequence and must not race each other.
type Store struct {
	dir  string
	opts Options

	// mu guards the append state: the next LSN, the in-memory buffer,
	// and the sticky I/O error. Appends only touch memory under mu.
	mu      sync.Mutex
	nextLSN uint64
	buf     []byte
	pending int
	err     error

	// ioMu serializes file writes. flush acquires ioMu before draining
	// the buffer under mu, so two concurrent flushes cannot reorder
	// buffered records on disk.
	ioMu sync.Mutex
	seg  *os.File

	stop chan struct{}
	done chan struct{}
}

// Open recovers the directory and returns a store ready to append.
// Every intact snapshot record is passed to restore and every intact
// WAL record at or past the snapshot cut to replay, in LSN order,
// before Open returns. A callback error drops that record (counted as
// corrupt) and recovery continues — a record either applies fully or
// not at all, never halfway. A v1-format artifact fails the whole Open
// with ErrRetiredFormat before anything in dir is written.
func Open(dir string, opts Options, restore func(record []byte) error, replay func(lsn uint64, payload []byte) error) (*Store, *RecoverStats, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("persist: state dir: %w", err)
	}
	stats := &RecoverStats{}

	snap, err := loadSnapshot(dir)
	if errors.Is(err, ErrRetiredFormat) {
		return nil, nil, fmt.Errorf("persist: %s: %w", SnapshotFile, err)
	}
	if err != nil {
		// An unusable snapshot header means the image tells us nothing,
		// not that the WAL is gone: count it and recover from the log
		// alone.
		stats.CorruptDropped++
		snap = nil
	}
	if snap != nil {
		stats.Cut = snap.cut
		stats.CorruptDropped += snap.skipped
		for _, rec := range snap.records {
			if restore == nil {
				continue
			}
			if rerr := restore(rec); rerr != nil {
				stats.CorruptDropped++
				continue
			}
			stats.SnapshotRecords++
		}
	}

	replayed, skipped, walNext, err := replayWAL(dir, stats.Cut, func(lsn uint64, payload []byte) error {
		if replay == nil {
			return nil
		}
		return replay(lsn, payload)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("persist: wal replay: %w", err)
	}
	stats.WALReplayed = replayed
	stats.CorruptDropped += skipped

	next := walNext
	if stats.Cut > next {
		next = stats.Cut
	}
	if next == 0 {
		next = 1
	}
	stats.NextLSN = next

	s := &Store{
		dir:     dir,
		opts:    opts,
		nextLSN: next,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	// Recovery never appends to a recovered segment — its tail may be
	// torn. A fresh segment starting at the next LSN keeps every future
	// record behind a clean header.
	if err := s.openSegment(next); err != nil {
		return nil, nil, err
	}
	go s.syncLoop()

	if obs.Enabled() {
		obsRecovered.Add(int64(stats.SnapshotRecords + stats.WALReplayed))
		obsCorrupt.Add(int64(stats.CorruptDropped))
	}
	return s, stats, nil
}

// openSegment creates (or truncates) the segment starting at first and
// makes its header durable. Truncation is safe: the only way the name
// exists already is a recovered segment whose surviving records were
// all below first, i.e. already replayed or already counted corrupt.
func (s *Store) openSegment(first uint64) error {
	f, err := os.OpenFile(filepath.Join(s.dir, segmentName(first)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: open segment: %w", err)
	}
	if _, err := f.Write(appendWALHeader(nil, first)); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("persist: segment header: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return fmt.Errorf("persist: segment create: %w", err)
	}
	s.seg = f
	return nil
}

// Append logs one payload and returns its LSN. The record is
// acknowledged from memory; durability follows within the group-commit
// window (or immediately once MaxPending records are waiting, which is
// the backpressure bound). Concurrent appends serialize on the store
// lock, so LSN order and on-disk order always agree.
func (s *Store) Append(payload []byte) (uint64, error) {
	if len(payload) > maxRecordLen {
		return 0, fmt.Errorf("persist: %d-byte record exceeds cap %d", len(payload), maxRecordLen)
	}
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return 0, err
	}
	lsn := s.nextLSN
	s.nextLSN++
	s.buf = appendWALRecord(s.buf, lsn, payload)
	s.pending++
	force := s.pending >= s.opts.MaxPending
	s.mu.Unlock()

	if obs.Enabled() {
		obsWALAppends.Inc()
	}
	if force {
		if err := s.flush(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// flush drains the buffer to the live segment and fsyncs — one group
// commit. ioMu is taken before the buffer is claimed, so overlapping
// flushes write their buffers in claim order.
func (s *Store) flush() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()

	s.mu.Lock()
	buf := s.buf
	s.buf = nil
	s.pending = 0
	s.mu.Unlock()
	if len(buf) == 0 {
		return nil
	}
	if s.seg == nil {
		err := fmt.Errorf("persist: store closed")
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
		return err
	}

	_, err := s.seg.Write(buf)
	if err == nil {
		err = s.seg.Sync()
	}
	if err != nil {
		err = fmt.Errorf("persist: wal write: %w", err)
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
		return err
	}
	if obs.Enabled() {
		obsWALSyncs.Inc()
	}
	return nil
}

// Flush forces a group commit now: every append acknowledged before
// the call is durable when it returns.
func (s *Store) Flush() error { return s.flush() }

// syncLoop is the group-commit ticker.
func (s *Store) syncLoop() {
	defer close(s.done)
	t := time.NewTicker(s.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.flush() // sticky error is surfaced by the next Append
		}
	}
}

// Rotate seals the live segment and opens the next one, returning the
// cut: the first LSN the new segment will carry. The buffer drain and
// the cut read happen atomically, so every record appended before the
// call lands (durably) in the sealed segment and every later one in
// the new segment — the cut is an exact boundary even under
// concurrent appends.
func (s *Store) Rotate() (uint64, error) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()

	s.mu.Lock()
	buf := s.buf
	s.buf = nil
	s.pending = 0
	cut := s.nextLSN
	err := s.err
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if s.seg == nil {
		return 0, fmt.Errorf("persist: store closed")
	}
	if len(buf) > 0 {
		if _, werr := s.seg.Write(buf); werr != nil {
			return 0, fmt.Errorf("persist: wal write: %w", werr)
		}
		if obs.Enabled() {
			obsWALSyncs.Inc()
		}
	}
	if serr := s.seg.Sync(); serr != nil {
		return 0, fmt.Errorf("persist: seal segment: %w", serr)
	}
	if cerr := s.seg.Close(); cerr != nil {
		return 0, fmt.Errorf("persist: seal segment: %w", cerr)
	}
	if err := s.openSegment(cut); err != nil {
		return 0, err
	}
	return cut, nil
}

// WriteSnapshot atomically persists the state image labeled with cut
// (a value returned by Rotate) and prunes every WAL segment the image
// supersedes. Pruning strictly follows the durable rename, so no
// replayable byte is deleted before its replacement exists.
func (s *Store) WriteSnapshot(cut uint64, records [][]byte) error {
	if err := writeFileAtomic(s.dir, SnapshotFile, encodeSnapshot(cut, records)); err != nil {
		return fmt.Errorf("persist: snapshot write: %w", err)
	}
	if obs.Enabled() {
		obsSnapshots.Inc()
	}
	if err := pruneWAL(s.dir, cut); err != nil {
		return fmt.Errorf("persist: wal prune: %w", err)
	}
	return nil
}

// Close stops the syncer, force-commits the remaining window, and
// closes the segment. The store is unusable afterwards.
func (s *Store) Close() error {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
	err := s.flush()
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	if s.seg != nil {
		if cerr := s.seg.Close(); err == nil && cerr != nil {
			err = cerr
		}
		s.seg = nil
	}
	return err
}

// Abort simulates a crash for tests: the syncer stops and the segment
// closes with the in-memory window deliberately discarded, exactly the
// state a kill -9 leaves behind.
func (s *Store) Abort() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	s.buf = nil
	s.pending = 0
	if s.err == nil {
		s.err = fmt.Errorf("persist: store aborted")
	}
	s.mu.Unlock()
	if s.seg != nil {
		s.seg.Close()
		s.seg = nil
	}
}

// Append-only observe WAL: the byte layer of the durability tentpole.
// A WAL is a directory of segment files, each named by the LSN of its
// first record (wal-%016x.log) so lexical order is replay order. Every
// record carries its own LSN and CRC, so recovery can tell exactly
// where a torn write, truncation, or bit flip starts and skip exactly
// the damaged records — never a prefix of one.
//
// Segment layout (all multi-byte fields little-endian):
//
//	[4]byte magic "BLUL"
//	u32    version (2)
//	u64    firstLSN — the LSN of the segment's first record
//	records:
//	  u32  len (payload bytes)
//	  u64  lsn
//	  ...  payload (exactly len bytes)
//	  u16  tlvLen, tlvLen TLV tail bytes
//	  u32  crc32-IEEE over lsn (8 LE bytes) ++ payload ++ TLV tail
//
// The per-record TLV tail — a sequence of (u8 type, u16 len, bytes)
// entries, empty in the current writer — is the extension point: a
// future writer can attach per-record metadata without a container
// version bump, and readers skip entry types they do not know.
// Version 1 (the same layout minus the TLV tail) is retired: a segment
// that declares it fails Open with ErrRetiredFormat, never replayed.
//
// LSNs are strictly sequential within the stream: the first record's
// LSN equals the header's firstLSN and each record increments by one,
// across segment boundaries too. That sequencing is what lets the
// reader distinguish "this record's payload is corrupt, skip it" (CRC
// mismatch at the expected LSN — count and continue) from "the framing
// itself is gone" (impossible length, wrong LSN, short tail — drop the
// rest of the stream, because record boundaries can no longer be
// trusted).
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	walVersion   = 2
	walHeaderLen = 16 // magic(4) + version(4) + firstLSN(8)

	// Fixed per-record overhead beyond the payload.
	walFrameLen = 18 // len(4) + lsn(8) + tlvLen(2) + crc(4)

	// maxRecordLen caps a declared payload length, mirroring the serve
	// layer's body cap so a corrupt length field cannot drive a huge
	// allocation or swallow the rest of the file as "one record".
	maxRecordLen = 8 << 20
)

var walMagic = [4]byte{'B', 'L', 'U', 'L'}

// segmentName renders the file name of the segment starting at lsn.
func segmentName(lsn uint64) string { return fmt.Sprintf("wal-%016x.log", lsn) }

// parseSegmentName extracts the firstLSN from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if len(hex) != 16 {
		return 0, false
	}
	lsn, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return lsn, true
}

// walRecordCRC checksums what the record protects: the LSN, the
// payload, and the TLV tail — the length fields are implied by the
// framing scan.
func walRecordCRC(lsn uint64, payload, tlv []byte) uint32 {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], lsn)
	c := crc32.Update(0, crc32.IEEETable, hdr[:])
	c = crc32.Update(c, crc32.IEEETable, payload)
	return crc32.Update(c, crc32.IEEETable, tlv)
}

// appendWALHeader writes a fresh segment header.
func appendWALHeader(b []byte, firstLSN uint64) []byte {
	b = append(b, walMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, walVersion)
	b = binary.LittleEndian.AppendUint64(b, firstLSN)
	return b
}

// appendWALRecord frames one record (empty TLV tail) onto b.
func appendWALRecord(b []byte, lsn uint64, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint64(b, lsn)
	b = append(b, payload...)
	b = binary.LittleEndian.AppendUint16(b, 0) // empty TLV tail
	b = binary.LittleEndian.AppendUint32(b, walRecordCRC(lsn, payload, nil))
	return b
}

// segmentScan is the outcome of reading one segment image.
type segmentScan struct {
	replayed int  // records delivered to the callback
	skipped  int  // CRC-corrupt records skipped in place
	tailLost bool // framing broke: the rest of the stream is untrusted
	retired  bool // intact header of the retired v1 format: refuse, not damage
	nextLSN  uint64
}

// scanSegment replays one segment image.
// expect is the LSN the stream requires the first record to carry (0
// means "take the header's word", for the first segment). Records with
// lsn < cut were already folded into the snapshot and are passed over
// silently. fn errors are counted as skips — a CRC-valid record the
// caller cannot apply is dropped whole, never half-applied.
func scanSegment(data []byte, expect, cut uint64, fn func(lsn uint64, payload []byte) error) segmentScan {
	sc := segmentScan{nextLSN: expect}
	if len(data) < walHeaderLen || [4]byte(data[:4]) != walMagic {
		sc.tailLost = true
		return sc
	}
	if version := binary.LittleEndian.Uint32(data[4:]); version != walVersion {
		sc.tailLost = true
		sc.retired = version == retiredVersion
		return sc
	}
	first := binary.LittleEndian.Uint64(data[8:])
	if expect != 0 && first != expect {
		// A gap or overlap between segments: the stream is no longer
		// sequential, so nothing past this point can be ordered safely.
		sc.tailLost = true
		return sc
	}
	lsn := first
	off := walHeaderLen
	for off < len(data) {
		if len(data)-off < walFrameLen {
			sc.tailLost = true // torn mid-frame
			break
		}
		plen := binary.LittleEndian.Uint32(data[off:])
		if plen > maxRecordLen || int(plen) > len(data)-off-walFrameLen {
			sc.tailLost = true // length field unusable: boundary lost
			break
		}
		recLSN := binary.LittleEndian.Uint64(data[off+4:])
		if recLSN != lsn {
			sc.tailLost = true // sequencing broken: boundary untrusted
			break
		}
		payload := data[off+12 : off+12+int(plen)]
		end := off + 12 + int(plen)
		tlvLen := int(binary.LittleEndian.Uint16(data[end:]))
		if tlvLen > maxTLVLen || tlvLen > len(data)-end-6 {
			sc.tailLost = true // TLV boundary lost
			break
		}
		tlv := data[end+2 : end+2+tlvLen]
		end += 2 + tlvLen
		gotCRC := binary.LittleEndian.Uint32(data[end:])
		off = end + 4
		if gotCRC != walRecordCRC(recLSN, payload, tlv) || !validTLV(tlv) {
			sc.skipped++ // payload corrupt, but framing intact: skip this one
		} else if recLSN >= cut {
			if err := fn(recLSN, payload); err != nil {
				sc.skipped++
			} else {
				sc.replayed++
			}
		}
		lsn++
	}
	sc.nextLSN = lsn
	return sc
}

// walSegments lists the directory's segments in LSN order.
func walSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var firsts []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if lsn, ok := parseSegmentName(e.Name()); ok {
			firsts = append(firsts, lsn)
		}
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	return firsts, nil
}

// replayWAL streams every surviving record with lsn >= cut through fn,
// in LSN order. Segments whose whole range lies below the cut (their
// successor starts at or before it) are passed over unread, so a
// corrupt-but-superseded old segment cannot poison recovery of live
// records. Returns the scan totals and the next LSN the stream would
// assign; a retired-format segment fails the replay with
// ErrRetiredFormat.
func replayWAL(dir string, cut uint64, fn func(lsn uint64, payload []byte) error) (replayed, skipped int, nextLSN uint64, err error) {
	firsts, err := walSegments(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	expect := uint64(0)
	for i, first := range firsts {
		if i+1 < len(firsts) && firsts[i+1] <= cut {
			continue // entirely snapshotted away; prune will collect it
		}
		data, rerr := os.ReadFile(filepath.Join(dir, segmentName(first)))
		if rerr != nil {
			return replayed, skipped, nextLSN, rerr
		}
		sc := scanSegment(data, expect, cut, fn)
		if sc.retired {
			return replayed, skipped, nextLSN, fmt.Errorf("%s: %w", segmentName(first), ErrRetiredFormat)
		}
		replayed += sc.replayed
		skipped += sc.skipped
		if sc.nextLSN > nextLSN {
			nextLSN = sc.nextLSN
		}
		if sc.tailLost {
			skipped++ // count the damage event itself
			break     // everything later is past the break in sequencing
		}
		expect = sc.nextLSN
	}
	return replayed, skipped, nextLSN, nil
}

// pruneWAL deletes segments made redundant by a snapshot at cut: a
// segment may go only when a successor segment starts at or before the
// cut, so the newest segment always survives and a crash between
// rotation and snapshot-commit never loses a replayable record.
func pruneWAL(dir string, cut uint64) error {
	firsts, err := walSegments(dir)
	if err != nil {
		return err
	}
	for i, first := range firsts {
		if i+1 < len(firsts) && firsts[i+1] <= cut {
			if err := os.Remove(filepath.Join(dir, segmentName(first))); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

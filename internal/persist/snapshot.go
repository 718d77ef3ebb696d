// Snapshot image: the point-in-time half of the durability layer. A
// snapshot is a single "BLUS" file holding one opaque record per live
// session plus the WAL cut — the LSN from which replay must resume for
// the pair (snapshot, WAL) to equal the never-restarted state.
//
// File layout (all multi-byte fields little-endian):
//
//	[4]byte magic "BLUS"
//	u32    version (2)
//	u64    cut — first WAL LSN not reflected in the image
//	u32    record count
//	records:
//	  u32  len, len payload bytes
//	  u16  tlvLen, tlvLen TLV tail bytes (see below)
//	  u32  crc32-IEEE(payload ++ TLV tail)
//	footer:
//	  u32  crc32-IEEE over every preceding byte
//	  [4]byte magic "SULB"
//
// The per-record TLV tail is the format's extension point: a sequence
// of (u8 type, u16 len, len bytes) entries. The current writer emits an
// empty tail; a reader skips entry types it does not know, so a future
// writer can attach per-record metadata (provenance, schema hints,
// compression flags) without another container version bump. The tail
// is covered by the record CRC, so extensions inherit the same
// corruption detection as the payload.
//
// Version 1 (the same layout minus the TLV tail) is retired: an image
// that declares it is refused with ErrRetiredFormat, never read.
//
// The image is written tmp-file + fsync + rename + dir-fsync, so a
// reader only ever sees the previous complete snapshot or the new one.
// The decoder still refuses to trust bytes it cannot verify: records
// are independent sessions, so one with a bad CRC is skipped and
// counted while the rest load; a broken length field ends the scan
// (boundaries are gone); and a footer mismatch marks the image damaged
// even when every surviving record checked out.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

const (
	retiredVersion    = 1 // refused by both decoders, see ErrRetiredFormat
	snapshotVersion   = 2
	snapshotHeaderLen = 16 // magic(4) + version(4) + cut(8) ... count follows
	snapshotFooterLen = 8  // crc(4) + magic(4)

	// maxTLVLen caps a declared per-record TLV tail, mirroring
	// maxRecordLen's job: a corrupt length field must not drive a huge
	// allocation or swallow the file.
	maxTLVLen = 1 << 12

	// SnapshotFile is the image's name inside the state directory.
	SnapshotFile = "state.blus"
)

var (
	snapMagic       = [4]byte{'B', 'L', 'U', 'S'}
	snapFooterMagic = [4]byte{'S', 'U', 'L', 'B'}
)

// validTLV reports whether b parses as a well-formed sequence of
// (u8 type, u16 len, bytes) entries. Unknown types are fine — the tail
// exists so future writers can add them — but broken framing marks the
// record untrustworthy.
func validTLV(b []byte) bool {
	off := 0
	for off < len(b) {
		if len(b)-off < 3 {
			return false
		}
		l := int(binary.LittleEndian.Uint16(b[off+1:]))
		off += 3 + l
		if off > len(b) {
			return false
		}
	}
	return true
}

// encodeSnapshot renders a complete BLUS image.
func encodeSnapshot(cut uint64, records [][]byte) []byte {
	size := snapshotHeaderLen + 4 + snapshotFooterLen
	for _, r := range records {
		size += 10 + len(r)
	}
	b := make([]byte, 0, size)
	b = append(b, snapMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, snapshotVersion)
	b = binary.LittleEndian.AppendUint64(b, cut)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(records)))
	for _, r := range records {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r)))
		b = append(b, r...)
		b = binary.LittleEndian.AppendUint16(b, 0) // empty TLV tail
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(r))
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	b = append(b, snapFooterMagic[:]...)
	return b
}

// snapshotScan is the outcome of decoding one image.
type snapshotScan struct {
	cut     uint64
	records [][]byte
	skipped int // per-record CRC failures and lost tails, counted
}

// decodeSnapshot parses a BLUS image, salvaging every record whose own
// CRC verifies. It returns an error only when the header is unusable
// (wrong magic, unknown version, too short) — then there is no
// snapshot to speak of — or names the retired version, which the
// caller must not treat as damage; any lesser damage is reported
// through skipped so the caller can count it without losing the intact
// sessions.
func decodeSnapshot(data []byte) (*snapshotScan, error) {
	if len(data) < snapshotHeaderLen+4 {
		return nil, fmt.Errorf("persist: snapshot is %d bytes, header needs %d", len(data), snapshotHeaderLen+4)
	}
	if [4]byte(data[:4]) != snapMagic {
		return nil, fmt.Errorf("persist: snapshot has bad magic %q", data[:4])
	}
	switch version := binary.LittleEndian.Uint32(data[4:]); version {
	case snapshotVersion:
	case retiredVersion:
		return nil, ErrRetiredFormat
	default:
		return nil, fmt.Errorf("persist: snapshot version %d, want %d", version, snapshotVersion)
	}
	sc := &snapshotScan{cut: binary.LittleEndian.Uint64(data[8:])}
	count := binary.LittleEndian.Uint32(data[16:])

	body := data
	footerOK := false
	if len(data) >= snapshotHeaderLen+4+snapshotFooterLen &&
		[4]byte(data[len(data)-4:]) == snapFooterMagic {
		fileCRC := binary.LittleEndian.Uint32(data[len(data)-snapshotFooterLen:])
		body = data[:len(data)-snapshotFooterLen]
		footerOK = fileCRC == crc32.ChecksumIEEE(body)
	}

	// Fixed per-record overhead beyond the payload:
	// len(4) + tlvLen(2) + crc(4).
	const overhead = 10
	off := snapshotHeaderLen + 4
	for i := uint32(0); i < count; i++ {
		if len(body)-off < overhead {
			sc.skipped += int(count - i) // torn tail: the rest never made it
			return sc, nil
		}
		plen := binary.LittleEndian.Uint32(body[off:])
		if plen > maxRecordLen || int(plen) > len(body)-off-overhead {
			sc.skipped += int(count - i) // boundary lost
			return sc, nil
		}
		payload := body[off+4 : off+4+int(plen)]
		end := off + 4 + int(plen)
		tlvLen := int(binary.LittleEndian.Uint16(body[end:]))
		if tlvLen > maxTLVLen || tlvLen > len(body)-end-6 {
			sc.skipped += int(count - i) // TLV boundary lost
			return sc, nil
		}
		tlv := body[end+2 : end+2+tlvLen]
		end += 2 + tlvLen
		gotCRC := binary.LittleEndian.Uint32(body[end:])
		off = end + 4
		wantCRC := crc32.ChecksumIEEE(payload)
		if len(tlv) > 0 {
			wantCRC = crc32.Update(wantCRC, crc32.IEEETable, tlv)
		}
		if gotCRC != wantCRC || !validTLV(tlv) {
			sc.skipped++
			continue
		}
		sc.records = append(sc.records, payload)
	}
	if !footerOK {
		// Every surviving record carried its own proof, but the image as
		// a whole (header fields included) failed verification — count
		// the damage so recovery metrics show it.
		sc.skipped++
	}
	return sc, nil
}

// loadSnapshot reads the directory's image. A missing file is a clean
// cold start: nil scan, no error.
func loadSnapshot(dir string) (*snapshotScan, error) {
	data, err := os.ReadFile(filepath.Join(dir, SnapshotFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data)
}

// writeFileAtomic writes data at path via tmp + fsync + rename, then
// fsyncs the directory so the rename itself is durable.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpName)
		return werr
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making renames and creates durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

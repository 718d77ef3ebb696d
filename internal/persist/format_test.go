// The on-disk format has one generation. These tests pin its bytes and
// the refusal of the retired one.
package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestFormatGolden pins the exact bytes the writers emit. A digest
// change here is an on-disk format change: it needs a version bump and
// a reader for the old bytes, not a new golden.
func TestFormatGolden(t *testing.T) {
	snapRecs := [][]byte{[]byte("session-alpha"), {}}
	image := encodeSnapshot(0x0102030405060708, snapRecs)
	if got, want := fnvHex(image), "85fae3d3435840c7"; got != want {
		t.Errorf("snapshot image digest %s, want %s (%d bytes)", got, want, len(image))
	}
	sc, err := decodeSnapshot(image)
	if err != nil {
		t.Fatal(err)
	}
	if sc.cut != 0x0102030405060708 || sc.skipped != 0 || len(sc.records) != len(snapRecs) {
		t.Fatalf("decoded cut %#x, %d records, %d skipped", sc.cut, len(sc.records), sc.skipped)
	}
	for i, r := range sc.records {
		if !bytes.Equal(r, snapRecs[i]) {
			t.Errorf("snapshot record %d decoded as %q", i, r)
		}
	}

	walRecs := [][]byte{[]byte("observe-1"), {}, []byte("observe-three")}
	seg := appendWALHeader(nil, 41)
	for i, p := range walRecs {
		seg = appendWALRecord(seg, uint64(41+i), p)
	}
	if got, want := fnvHex(seg), "71768f8bfe5d2572"; got != want {
		t.Errorf("wal segment digest %s, want %s (%d bytes)", got, want, len(seg))
	}
	var rl replayLog
	ws := scanSegment(seg, 41, 0, rl.fn)
	if ws.replayed != len(walRecs) || ws.skipped != 0 || ws.tailLost || ws.nextLSN != 44 {
		t.Fatalf("segment scan %+v", ws)
	}
	for i, p := range rl.payloads {
		if rl.lsns[i] != uint64(41+i) || !bytes.Equal(p, walRecs[i]) {
			t.Errorf("wal record %d decoded as lsn %d %q", i, rl.lsns[i], p)
		}
	}
}

// TestOpenRefusesRetiredFormat: a v1 header is a format this binary no
// longer reads, not damage. Treating it as damage would start empty and
// let the next snapshot/prune cycle overwrite the directory, so Open
// must fail with ErrRetiredFormat and leave every file as it found it.
// Any other unknown version stays ordinary corruption.
func TestOpenRefusesRetiredFormat(t *testing.T) {
	header := func(magic [4]byte, version uint32, word uint64) []byte {
		b := append([]byte(nil), magic[:]...)
		b = binary.LittleEndian.AppendUint32(b, version)
		return binary.LittleEndian.AppendUint64(b, word)
	}
	// A v1 image with zero records: header, count, footer.
	v1Snap := binary.LittleEndian.AppendUint32(header(snapMagic, 1, 5), 0)
	v1Snap = append(v1Snap, make([]byte, snapshotFooterLen)...)
	v1Seg := append(header(walMagic, 1, 5), "v1 record bytes this binary cannot frame"...)

	v2Seg := appendWALRecord(appendWALHeader(nil, 1), 1, payload(0))

	for _, tc := range []struct {
		name  string
		files map[string][]byte
	}{
		{"snapshot", map[string][]byte{SnapshotFile: v1Snap}},
		{"segment", map[string][]byte{segmentName(5): v1Seg}},
		{"segment-after-current", map[string][]byte{segmentName(1): v2Seg, segmentName(2): append(header(walMagic, 1, 2), 0xaa)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, data := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s, _, err := Open(dir, slowOpts, nil, nil)
			if !errors.Is(err, ErrRetiredFormat) {
				if s != nil {
					s.Close()
				}
				t.Fatalf("Open error %v, want ErrRetiredFormat", err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != len(tc.files) {
				t.Fatalf("refused Open left %d files, started with %d", len(entries), len(tc.files))
			}
			for name, want := range tc.files {
				got, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s changed by a refused Open (err %v)", name, err)
				}
			}
		})
	}

	t.Run("unknown-version-is-corruption", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SnapshotFile), append(header(snapMagic, 3, 5), 0, 0, 0, 0), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(5)), header(walMagic, 3, 5), 0o644); err != nil {
			t.Fatal(err)
		}
		s, stats := openForTest(t, dir, slowOpts, nil, nil)
		defer s.Close()
		if stats.CorruptDropped != 2 || stats.SnapshotRecords != 0 || stats.WALReplayed != 0 {
			t.Fatalf("stats %+v, want two damage events and nothing recovered", stats)
		}
	})
}

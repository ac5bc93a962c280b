package storage

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pbs/internal/kvstore"
)

// Frames in the layout written while every version carried a vector
// clock: the same record codec, but with a two-entry clock list after the
// value. Both decode to their version and skip the entries. They are in
// key order, so together they also form a valid SSTable.
var legacyFrames = []struct {
	name string
	hex  string
	want kvstore.Version
}{
	{
		// "gone", seq 42, tombstone, writtenAt -1.25, no value,
		// clock {0: 1, 3: 42}.
		name: "tombstone",
		hex: "00000035" + "f107d6b9" + "0004" + "676f6e65" + "000000000000002a" + "01" +
			"bff4000000000000" + "00000000" + "0002" +
			"00000000" + "0000000000000001" + "00000003" + "000000000000002a",
		want: kvstore.Version{Key: "gone", Seq: 42, WrittenAt: -1.25, Tombstone: true},
	},
	{
		// "k1", seq epoch 1 | counter 7, live, writtenAt 2.5, value "v",
		// clock {1: 3, 2: 9}.
		name: "live",
		hex: "00000034" + "9a62671e" + "0002" + "6b31" + "0001000000000007" + "00" +
			"4004000000000000" + "00000001" + "76" + "0002" +
			"00000001" + "0000000000000003" + "00000002" + "0000000000000009",
		want: kvstore.Version{Key: "k1", Seq: 1<<48 | 7, Value: "v", WrittenAt: 2.5},
	},
}

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// legacySegment concatenates the legacy frames.
func legacySegment(t testing.TB) []byte {
	var out []byte
	for _, tc := range legacyFrames {
		out = append(out, mustHex(t, tc.hex)...)
	}
	return out
}

func TestLegacyClockLayout(t *testing.T) {
	for _, tc := range legacyFrames {
		t.Run(tc.name, func(t *testing.T) {
			frame := mustHex(t, tc.hex)
			rec, n, err := readRecord(bufio.NewReader(bytes.NewReader(frame)))
			if err != nil {
				t.Fatalf("readRecord: %v", err)
			}
			if v := rec.Version; v != tc.want || rec.kind != 0 || n != len(frame) {
				t.Fatalf("readRecord = %+v (%d of %d bytes), want %+v", v, n, len(frame), tc.want)
			}

			// Drop the last clock entry but keep the count and a valid CRC:
			// the entry list is short, so the payload is corrupt.
			payload := frame[frameHeaderLen : len(frame)-12]
			if _, err := decodeFrame(appendFrame(nil, payload)); !errors.Is(err, errCorruptRecord) {
				t.Fatalf("short entry list: err = %v, want errCorruptRecord", err)
			}
			// A frame cut inside the entries is torn.
			if _, _, err := readRecord(bufio.NewReader(bytes.NewReader(frame[:len(frame)-5]))); !errors.Is(err, errCorruptRecord) {
				t.Fatalf("torn entry list: err = %v, want errCorruptRecord", err)
			}
		})
	}

	// The same bytes recover as a WAL segment and as an SSTable (whose Get
	// goes through the point-read path).
	for _, file := range []string{"wal-0000000000000001.log", "sst-0000000000000001.sst"} {
		t.Run(file, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, file), legacySegment(t), 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := Open(Options{Dir: dir, Fsync: FsyncNever})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer e.Close()
			for _, tc := range legacyFrames {
				if got, ok := e.Get(tc.want.Key); !ok || got != tc.want {
					t.Fatalf("Get(%q) = %+v, %v; want %+v", tc.want.Key, got, ok, tc.want)
				}
			}
		})
	}
}

// TestRecordGolden pins the frame the engine writes today: clock count 0.
func TestRecordGolden(t *testing.T) {
	v := kvstore.Version{Key: "k1", Seq: 1<<48 | 7, Value: "v", WrittenAt: 2.5}
	const want = "0000001c" + "dd307e79" + "0002" + "6b31" + "0001000000000007" + "00" +
		"4004000000000000" + "00000001" + "76" + "0000"
	if got := hex.EncodeToString(encodeRecord(v)); got != want {
		t.Fatalf("encodeRecord = %s\nwant           %s", got, want)
	}
}

package storage

// FuzzWALReplay feeds arbitrary bytes to the engine as a WAL segment:
// truncated tails, bit flips, garbage headers. Recovery must never panic
// and must always recover a clean prefix — every record it does recover
// decodes to a well-formed version, and a valid untampered log recovers
// fully.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pbs/internal/kvstore"
)

// buildWAL frames n sequential records the way the engine writes them.
func buildWAL(n int) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		out = append(out, encodeRecord(kvstore.Version{
			Key:       fmt.Sprintf("key-%d", i),
			Seq:       uint64(i + 1),
			Value:     fmt.Sprintf("value-%d", i),
			WrittenAt: float64(i),
			Tombstone: i%5 == 0,
		})...)
	}
	return out
}

func FuzzWALReplay(f *testing.F) {
	full := buildWAL(8)
	f.Add(full)
	f.Add(full[:len(full)-3])                         // torn tail
	f.Add([]byte{})                                   // empty segment
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length prefix
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add(legacySegment(f)) // written when versions carried vector clocks

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		// Plant the fuzzed bytes as an existing WAL segment, as if a crash
		// left it behind.
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := Open(Options{Dir: dir, Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("Open on fuzzed WAL: %v", err)
		}
		defer e.Close()

		// Independently decode the clean prefix; the engine must have
		// recovered exactly its newest-per-key fold.
		want := make(map[string]kvstore.Version)
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			v, _, err := readRecord(br)
			if errors.Is(err, io.EOF) || err != nil {
				break
			}
			if cur, ok := want[v.Key]; !ok || v.Seq > cur.Seq {
				want[v.Key] = v
			}
		}
		if got := e.Len(); got != len(want) {
			t.Fatalf("recovered %d keys, clean prefix holds %d", got, len(want))
		}
		for key, wv := range want {
			gv, found := e.Get(key)
			if !found || gv.Seq != wv.Seq || gv.Value != wv.Value || gv.Tombstone != wv.Tombstone {
				t.Fatalf("recovered %q = %+v, want %+v (found=%v)", key, gv, wv, found)
			}
		}

		// The engine must keep working after recovery. The fuzzed log may
		// already hold "post" at an arbitrary seq, so write one past it.
		if next := e.Seq("post") + 1; next != 0 {
			if ok := e.Apply(kvstore.Version{Key: "post", Seq: next, Value: "alive"}, 1); !ok {
				t.Fatal("apply after fuzzed recovery rejected")
			}
		}
	})
}

// FuzzRecordRoundTrip pins the disk codec: every version survives an
// encode/decode cycle bit-exactly.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add("key", "value", uint64(7), true, 3.5)
	f.Add("", "", uint64(0), false, 0.0)
	f.Fuzz(func(t *testing.T, key, value string, seq uint64, tomb bool, at float64) {
		if len(key) > 1<<16-1 {
			t.Skip()
		}
		in := kvstore.Version{Key: key, Value: value, Seq: seq, Tombstone: tomb, WrittenAt: at}
		frame := encodeRecord(in)
		out, n, err := readRecord(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(frame) {
			t.Fatalf("frame length %d, consumed %d", len(frame), n)
		}
		if out.Key != in.Key || out.Value != in.Value || out.Seq != in.Seq ||
			out.Tombstone != in.Tombstone ||
			math.Float64bits(out.WrittenAt) != math.Float64bits(in.WrittenAt) {
			t.Fatalf("round trip: in %+v out %+v", in, out)
		}
	})
}

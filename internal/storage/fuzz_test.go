package storage

// FuzzWALReplay feeds arbitrary bytes to the engine as a WAL segment:
// truncated tails, bit flips, garbage headers, data and hint records
// interleaved. Recovery must never panic and must always recover a clean
// prefix — the data it recovers is the newest-per-key fold of the decodable
// records, the hints it recovers are the reference fold of their stores and
// clears, and a valid untampered log recovers fully.

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

// buildMixedWAL interleaves data and hint records the way a spare's log
// holds them — each hint staged before its data record, some hints later
// superseded or cleared — and ends with a hint record.
func buildMixedWAL() []byte {
	var out []byte
	for i := 0; i < 8; i++ {
		v := kvstore.Version{
			Key:       fmt.Sprintf("key-%d", i%3),
			Seq:       uint64(i + 1),
			Value:     fmt.Sprintf("value-%d", i),
			Tombstone: i%4 == 3,
		}
		out = append(out, encodeHintRecord(flagHintStore, i%2, v)...)
		out = append(out, encodeRecord(v)...)
		if i%3 == 2 {
			out = append(out, encodeHintRecord(flagHintClear, i%2, v)...)
		}
	}
	return append(out, encodeHintRecord(flagHintStore, 5, kvstore.Version{Key: "tail", Seq: 9, Value: "t"})...)
}

// hintID names one pending hint in the reference fold.
type hintID struct {
	target int
	key    string
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
	mixed := buildMixedWAL()
	f.Add(mixed)
	f.Add(mixed[:len(mixed)-3]) // torn hint record
	hv := kvstore.Version{Key: "h", Seq: 4, Value: "x"}
	f.Add(append(encodeHintRecord(flagHintClear, 2, hv), encodeHintRecord(flagHintStore, 2, hv)...)) // clear before its store

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
		// recovered exactly its newest-per-key data fold and its hint fold:
		// a store keeps the newest version per (target, key), a clear drops
		// the pending hint unless it is newer than the cleared version.
		want := make(map[string]kvstore.Version)
		wantHints := make(map[hintID]kvstore.Version)
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			rec, _, err := readRecord(br)
			if errors.Is(err, io.EOF) || err != nil {
				break
			}
			v, id := rec.Version, hintID{rec.target, rec.Key}
			switch cur, ok := wantHints[id]; rec.kind {
			case flagHintStore:
				if !ok || v.Seq > cur.Seq {
					wantHints[id] = v
				}
			case flagHintClear:
				if ok && cur.Seq <= v.Seq {
					delete(wantHints, id)
				}
			default:
				if cur, ok := want[v.Key]; !ok || v.Seq > cur.Seq {
					want[v.Key] = v
				}
			}
		}
		gotHints := 0
		for target, kh := range e.Hints() {
			for key, gv := range kh {
				gotHints++
				wv, ok := wantHints[hintID{target, key}]
				if !ok || gv.Key != key || gv.Seq != wv.Seq || gv.Value != wv.Value || gv.Tombstone != wv.Tombstone {
					t.Fatalf("recovered hint (%d, %q) = %+v, reference fold has %+v (present=%v)", target, key, gv, wv, ok)
				}
			}
		}
		if gotHints != len(wantHints) || e.HintStats().Pending != gotHints {
			t.Fatalf("recovered %d hints (%d pending), reference fold holds %d", gotHints, e.HintStats().Pending, len(wantHints))
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
		rec, n, err := readRecord(bufio.NewReader(bytes.NewReader(frame)))
		out := rec.Version
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

package storage

// FuzzWALReplay feeds damaged WAL segments to recovery: truncated tails,
// bit flips, garbage appended, data and hint records interleaved.
// Recovery must never panic and must always recover a clean
// prefix — the data it recovers is the newest-per-key fold of the decodable
// records, the hints it recovers are the reference fold of their stores and
// clears, and a valid untampered log recovers fully.

import (
	"bufio"
	"bytes"
	"fmt"
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

// walSeeds are FuzzWALReplay's seeds, in order.
func walSeeds(tb testing.TB) [][]byte {
	full := buildWAL(8)
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x10
	mixed := buildMixedWAL()
	hv := kvstore.Version{Key: "h", Seq: 4, Value: "x"}
	return [][]byte{
		full,
		full[:len(full)-3],                   // torn tail
		{},                                   // empty segment
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, // absurd length prefix
		flipped,                              // bit flip mid-log
		legacySegment(tb),                    // written when versions carried vector clocks
		mixed,                                // data and hint records interleaved
		mixed[:len(mixed)-3],                 // torn hint record
		append(encodeHintRecord(flagHintClear, 2, hv), encodeHintRecord(flagHintStore, 2, hv)...), // clear before its store
	}
}

// checkRecovered compares what recovery made of a segment holding data
// against an independent decode of its clean prefix: the data must be its
// newest-per-key fold, and the hints its reference fold — a store keeps
// the newest version per (target, key), a clear drops the pending hint
// unless it is newer than the cleared version.
func checkRecovered(t *testing.T, data []byte, keys int, get func(string) (kvstore.Version, bool),
	hints map[int]map[string]kvstore.Version, pending int) {
	t.Helper()
	want := make(map[string]kvstore.Version)
	wantHints := make(map[hintID]kvstore.Version)
	br := bufio.NewReader(bytes.NewReader(data))
	for {
		rec, _, err := readRecord(br)
		if err != nil {
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
	for target, kh := range hints {
		for key, gv := range kh {
			gotHints++
			wv, ok := wantHints[hintID{target, key}]
			if !ok || gv.Key != key || gv.Seq != wv.Seq || gv.Value != wv.Value || gv.Tombstone != wv.Tombstone {
				t.Fatalf("recovered hint (%d, %q) = %+v, reference fold has %+v (present=%v)", target, key, gv, wv, ok)
			}
		}
	}
	if gotHints != len(wantHints) || pending != gotHints {
		t.Fatalf("recovered %d hints (%d pending), reference fold holds %d", gotHints, pending, len(wantHints))
	}
	if keys != len(want) {
		t.Fatalf("recovered %d keys, clean prefix holds %d", keys, len(want))
	}
	for key, wv := range want {
		gv, found := get(key)
		if !found || gv.Seq != wv.Seq || gv.Value != wv.Value || gv.Tombstone != wv.Tombstone {
			t.Fatalf("recovered %q = %+v, want %+v (found=%v)", key, gv, wv, found)
		}
	}
}

// FuzzWALReplay replays a fuzzed segment through the fold recovery runs on
// every segment, in memory. The segment is one of the seeds (base, modulo
// their count) cut to its first cut bytes, with the byte at flip (modulo
// the cut length) XORed by mask, then followed by tail; the nine seeds are
// each seed whole. The fuzzer minimizes every new interesting input by
// re-running it once per candidate sub-slice of its []byte arguments,
// quadratic in their length, so only the short tail is a []byte, and an
// exec costs microseconds rather than a full Open's milliseconds (temp
// dir, segment file, SSTable flush): with kilobyte segments and Open per
// exec, one minimization outlasts a 20 s run. TestWALReplaySeedsThroughOpen
// runs the seeds through Open itself.
func FuzzWALReplay(f *testing.F) {
	seeds := walSeeds(f)
	for i, seed := range seeds {
		f.Add(uint8(i), uint32(len(seed)), uint32(0), uint8(0), []byte{})
	}
	f.Fuzz(func(t *testing.T, base uint8, cut, flip uint32, mask uint8, tail []byte) {
		seed := seeds[int(base)%len(seeds)]
		data := append([]byte(nil), seed[:min(int(cut), len(seed))]...)
		if len(data) > 0 {
			data[int(flip)%len(data)] ^= mask
		}
		data = append(data, tail...)

		e := &Engine{hints: kvstore.NewHints()}
		mem := newMemtable()
		e.replay(bufio.NewReader(bytes.NewReader(data)), mem)
		checkRecovered(t, data, len(mem.data), func(key string) (kvstore.Version, bool) {
			v, ok := mem.data[key]
			return v, ok
		}, e.hints.Snapshot(), e.hints.Stats().Pending)
	})
}

// TestWALReplaySeedsThroughOpen plants every FuzzWALReplay seed as an
// existing WAL segment, as if a crash left it behind, and opens the engine
// on it: recovery must keep the clean prefix through the SSTable flush and
// the seeded segment, and the engine must keep working after it.
func TestWALReplaySeedsThroughOpen(t *testing.T) {
	for i, data := range walSeeds(t) {
		t.Run(fmt.Sprintf("seed#%d", i), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := Open(Options{Dir: dir, Fsync: FsyncNever})
			if err != nil {
				t.Fatalf("Open on seeded WAL: %v", err)
			}
			defer e.Close()
			checkRecovered(t, data, e.Len(), e.Get, e.Hints(), e.HintStats().Pending)
			// The log may already hold "post" at an arbitrary seq, so write
			// one past it.
			if next := e.Seq("post") + 1; next != 0 {
				if ok := e.Apply(kvstore.Version{Key: "post", Seq: next, Value: "alive"}, 1); !ok {
					t.Fatal("apply after recovery rejected")
				}
			}
		})
	}
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

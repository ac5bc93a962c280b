package server

// Durable-hint coverage: the hint log must reconstruct exactly the pending
// hint set across a crash/restart (newest version per (target, key)
// preserved, delivered hints gone), tolerate torn tails, and never panic
// on arbitrary log bytes.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pbs/internal/kvstore"
	"pbs/internal/rng"
)

// randVersion builds a random version for the hint-log round trip.
func randVersion(r *rng.RNG, key string) kvstore.Version {
	seq := r.Uint64n(200) + 1
	return kvstore.Version{
		Key:   key,
		Seq:   seq,
		Value: fmt.Sprintf("v%d", seq),
	}
}

// TestHintLogRestartRoundTrip drives a random store/clear history against
// a logged handoff buffer, "crashes" it (close without draining), reopens
// the log, and checks the replayed buffer is identical to the pre-crash
// one — the property behind "a coordinator restart loses nothing".
func TestHintLogRestartRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "hints.log")
			h, err := newDurableHandoff(path, HintFsyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(seed)
			for i := 0; i < 3000; i++ {
				target := int(r.Uint64n(4))
				key := fmt.Sprintf("key-%d", r.Uint64n(40))
				v := randVersion(r, key)
				if r.Float64() < 0.65 {
					h.store(target, v)
				} else {
					h.clear(target, v)
				}
			}
			want := h.snapshot()
			wantPending, _, _, _ := h.stats()
			h.closeLog()

			h2, err := newDurableHandoff(path, HintFsyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			defer h2.closeLog()
			got := h2.snapshot()
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("replayed buffer diverged:\n pre-crash: %+v\n replayed:  %+v", want, got)
			}
			gotPending, _, _, _ := h2.stats()
			if gotPending != wantPending {
				t.Fatalf("replay restored %d pending hints, want %d", gotPending, wantPending)
			}
			if h2.restoredCount() != int64(wantPending) {
				t.Fatalf("restored counter %d, want %d", h2.restoredCount(), wantPending)
			}
		})
	}
}

// TestHintLogTornTail pins crash behavior mid-append: a torn final record
// is skipped, everything before it replays.
func TestHintLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hints.log")
	h, err := newDurableHandoff(path, HintFsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	h.store(2, kvstore.Version{Key: "a", Seq: 5, Value: "x"})
	h.store(1, kvstore.Version{Key: "b", Seq: 9, Value: "y"})
	h.closeLog()

	// Tear the last record: chop a few bytes off the file.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	h2, err := newDurableHandoff(path, HintFsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.closeLog()
	pending, _, _, _ := h2.stats()
	if pending != 1 {
		t.Fatalf("torn log replayed %d hints, want the 1 intact record", pending)
	}
}

// TestHintLogUnknownRecordTruncation pins what happens when replay meets a
// record type this build does not know (a log written by a future
// version, or corruption that kept a valid frame shape): the clean prefix
// before it is fully replayed, everything after is discarded, and the
// discard is surfaced through the truncation counter instead of silently.
func TestHintLogUnknownRecordTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hints.log")
	h, err := newDurableHandoff(path, HintFsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	h.store(1, kvstore.Version{Key: "a", Seq: 2, Value: "x"})
	h.store(2, kvstore.Version{Key: "b", Seq: 4, Value: "y"})
	h.closeLog()

	// Splice in an unknown-type record followed by a perfectly valid store
	// record: replay must stop at the unknown record, so the trailing valid
	// one is (deliberately) lost and the loss is counted.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	tail := kvstore.Version{Key: "c", Seq: 6, Value: "z"}
	if err := writeFrame(bw, 99, encodeHintRecord(1, tail)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(bw, hintRecStore, encodeHintRecord(1, tail)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	h2, err := newDurableHandoff(path, HintFsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	pending, _, _, _ := h2.stats()
	if pending != 2 {
		t.Fatalf("replayed %d hints, want the 2 before the unknown record", pending)
	}
	if h2.truncatedCount() != 1 {
		t.Fatalf("truncatedCount = %d after an unknown-record stop, want 1", h2.truncatedCount())
	}
	h2.closeLog()

	// The reopen compacted the junk away: a third open replays the same
	// clean prefix with no truncation reported.
	h3, err := newDurableHandoff(path, HintFsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer h3.closeLog()
	if pending, _, _, _ := h3.stats(); pending != 2 {
		t.Fatalf("compacted log replayed %d hints, want 2", pending)
	}
	if h3.truncatedCount() != 0 {
		t.Fatalf("truncatedCount = %d after compaction, want 0", h3.truncatedCount())
	}
}

// TestHintLogCompaction pins that reopening compacts: cleared hints do not
// accumulate in the file across restarts.
func TestHintLogCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hints.log")
	h, err := newDurableHandoff(path, HintFsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v := kvstore.Version{Key: fmt.Sprintf("k%d", i), Seq: 1, Value: "v"}
		h.store(1, v)
		h.clear(1, v)
	}
	h.store(1, kvstore.Version{Key: "keep", Seq: 1, Value: "v"})
	h.closeLog()
	before, _ := os.Stat(path)

	h2, err := newDurableHandoff(path, HintFsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	h2.closeLog()
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", before.Size(), after.Size())
	}
	h3, err := newDurableHandoff(path, HintFsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer h3.closeLog()
	if pending, _, _, _ := h3.stats(); pending != 1 {
		t.Fatalf("compacted log replayed %d hints, want 1", pending)
	}
}

// normalizePending drops empty per-target maps so replay outputs compare
// structurally.
func normalizePending(p map[int]map[string]kvstore.Version) map[int]map[string]kvstore.Version {
	out := make(map[int]map[string]kvstore.Version)
	for target, kh := range p {
		if len(kh) > 0 {
			out[target] = kh
		}
	}
	return out
}

// FuzzHintLogReplay feeds arbitrary bytes to the hint-log replayer: it
// must never panic, and whatever pending set it produces must be a
// fixpoint — re-encoding it as store records and replaying again yields
// the same set (the compaction invariant).
func FuzzHintLogReplay(f *testing.F) {
	rec := func(tag byte, target int, v kvstore.Version) []byte {
		payload := encodeHintRecord(target, v)
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		writeFrame(bw, tag, payload)
		return buf.Bytes()
	}
	v1 := kvstore.Version{Key: "k", Seq: 3, Value: "v"}
	v2 := kvstore.Version{Key: "k", Seq: 5, Value: "w"}
	f.Add(rec(hintRecStore, 2, v1))
	f.Add(append(rec(hintRecStore, 2, v1), rec(hintRecClear, 2, v2)...))
	f.Add(append(rec(hintRecStore, 1, v2), rec(hintRecStore, 1, v1)...))
	f.Add(rec(99, 0, v1))                         // unknown record type
	f.Add(rec(hintRecStore, 2, v1)[:7])           // torn record
	f.Add([]byte{hintRecStore, 0xff, 0xff, 0xff}) // garbage header

	f.Fuzz(func(t *testing.T, data []byte) {
		rawPending, _ := replayHints(bytes.NewReader(data))
		pending := normalizePending(rawPending)
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		for target, kh := range pending {
			for _, v := range kh {
				if err := writeFrame(bw, hintRecStore, encodeHintRecord(target, v)); err != nil {
					t.Fatalf("re-encode: %v", err)
				}
			}
		}
		rawAgain, truncAgain := replayHints(&buf)
		if truncAgain {
			t.Fatalf("re-encoded pending set reported truncation")
		}
		again := normalizePending(rawAgain)
		if !reflect.DeepEqual(pending, again) {
			t.Fatalf("replay not a fixpoint:\n first: %+v\n again: %+v", pending, again)
		}
	})
}

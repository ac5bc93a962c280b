package storage

// Durable-hint coverage: the pending hinted-handoff set rides the WAL, so a
// restart must reconstruct it exactly (newest version per (target, key),
// delivered hints gone), a torn or undecodable tail must cost only the
// records past it, and a pending hint must outlive the segment it was
// logged in.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pbs/internal/kvstore"
	"pbs/internal/rng"
)

// reopen closes e and opens its directory again.
func reopen(t *testing.T, e *Engine, opts Options) *Engine {
	t.Helper()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// onlySegment returns the path of the directory's single WAL segment.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one wal segment, got %v (%v)", segs, err)
	}
	return segs[0]
}

// TestHintRestartRoundTrip drives a random store/clear history against
// the engine, restarts it twice, and checks each reopen recovers exactly
// the pre-restart pending set — the second reopen replays only what the
// first one re-staged into its fresh segment.
func TestHintRestartRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			opts := Options{Dir: t.TempDir(), Fsync: FsyncNever}
			e, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(seed)
			for i := 0; i < 3000; i++ {
				target := int(r.Uint64n(4))
				seq := r.Uint64n(200) + 1
				v := kvstore.Version{Key: fmt.Sprintf("key-%d", r.Uint64n(40)), Seq: seq, Value: fmt.Sprintf("v%d", seq)}
				if r.Float64() < 0.65 {
					e.StoreHint(target, v)
				} else {
					e.ClearHint(target, v)
				}
			}
			want := e.Hints()
			pending := e.HintStats().Pending
			for restart := 1; restart <= 2; restart++ {
				e = reopen(t, e, opts)
				if got := e.Hints(); !reflect.DeepEqual(want, got) {
					t.Fatalf("restart %d: recovered set diverged:\n before: %+v\n after:  %+v", restart, want, got)
				}
				st := e.HintStats()
				if st.Pending != pending || st.Restored != int64(pending) || st.Stored != int64(pending) {
					t.Fatalf("restart %d: stats %+v, want %d pending, restored and stored", restart, st, pending)
				}
			}
		})
	}
}

// TestHintTornTail pins crash behavior mid-append: a torn final hint
// record is skipped, everything before it replays, and the stop is
// surfaced as WALTruncated.
func TestHintTornTail(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Fsync: FsyncAlways}
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	e.Apply(kvstore.Version{Key: "a", Seq: 5, Value: "x"}, 1)
	e.StoreHint(2, kvstore.Version{Key: "a", Seq: 5, Value: "x"})
	e.StoreHint(1, kvstore.Version{Key: "b", Seq: 9, Value: "y"})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	seg := onlySegment(t, opts.Dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.HintStats(); st.Pending != 1 || st.Restored != 1 {
		t.Fatalf("torn log: %+v, want the 1 intact hint", st)
	}
	if _, ok := r.Hints()[2]["a"]; !ok {
		t.Fatalf("intact hint lost: %+v", r.Hints())
	}
	if _, ok := r.Get("a"); !ok {
		t.Fatal("data record before the torn hint lost")
	}
	if m := r.Metrics(); m.WALTruncated != 1 {
		t.Fatalf("WALTruncated = %d after a torn hint record, want 1", m.WALTruncated)
	}
}

// TestHintUnknownRecordTruncation pins what replay does at a record this
// build cannot decode — a frame with a valid checksum whose flags claim
// both a hint store and a clear: the clean prefix before it replays,
// everything after it (here a valid store) is discarded, and the stop is
// surfaced as WALTruncated. The reopen retires the damaged segment, so a
// third open replays the same prefix and reports nothing.
func TestHintUnknownRecordTruncation(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Fsync: FsyncAlways}
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	e.StoreHint(1, kvstore.Version{Key: "a", Seq: 2, Value: "x"})
	e.StoreHint(2, kvstore.Version{Key: "b", Seq: 4, Value: "y"})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	tail := kvstore.Version{Key: "c", Seq: 6, Value: "z"}
	f, err := os.OpenFile(onlySegment(t, opts.Dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(appendFrame(nil, encodePayload(nil, tail, hintFlags, 1)))
	f.Write(encodeHintRecord(flagHintStore, 1, tail))
	f.Close()

	r, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.HintStats(); st.Pending != 2 {
		t.Fatalf("replayed %d hints, want the 2 before the undecodable record", st.Pending)
	}
	if m := r.Metrics(); m.WALTruncated != 1 {
		t.Fatalf("WALTruncated = %d after an undecodable record, want 1", m.WALTruncated)
	}
	r = reopen(t, r, opts)
	if st := r.HintStats(); st.Pending != 2 {
		t.Fatalf("second reopen replayed %d hints, want 2", st.Pending)
	}
	if m := r.Metrics(); m.WALTruncated != 0 {
		t.Fatalf("WALTruncated = %d once the damaged segment is retired, want 0", m.WALTruncated)
	}
}

// TestHintCompaction pins that a reopen compacts: the fresh segment holds
// only the pending set, so delivered hints do not accumulate across
// restarts.
func TestHintCompaction(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Fsync: FsyncAlways}
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v := kvstore.Version{Key: fmt.Sprintf("k%d", i), Seq: 1, Value: "v"}
		e.StoreHint(1, v)
		e.ClearHint(1, v)
	}
	e.StoreHint(1, kvstore.Version{Key: "keep", Seq: 1, Value: "v"})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(onlySegment(t, opts.Dir))
	if err != nil {
		t.Fatal(err)
	}
	e, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(onlySegment(t, opts.Dir))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("reopen did not compact the hint records: %d -> %d bytes", before.Size(), after.Size())
	}
	e = openTestEngine(t, opts)
	if st := e.HintStats(); st.Pending != 1 {
		t.Fatalf("compacted log replayed %d hints, want 1", st.Pending)
	}
}

// TestHintClearAndDropAcrossRestart pins the fold's two removal rules
// through a restart: a clear removes a hint only if the pending version is
// not newer than the delivered one, and dropping a departed target removes
// all of its hints.
func TestHintClearAndDropAcrossRestart(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Fsync: FsyncAlways}
	e := openTestEngine(t, opts)
	e.StoreHint(1, kvstore.Version{Key: "a", Seq: 5, Value: "a5"})
	e.ClearHint(1, kvstore.Version{Key: "a", Seq: 3}) // older delivery: a5 stays
	e.StoreHint(1, kvstore.Version{Key: "b", Seq: 2, Value: "b2"})
	e.StoreHint(1, kvstore.Version{Key: "b", Seq: 7, Value: "b7"}) // supersedes b2
	e.ClearHint(1, kvstore.Version{Key: "b", Seq: 2})              // b7 arrived mid-replay: stays
	e.StoreHint(1, kvstore.Version{Key: "c", Seq: 4, Value: "c4"})
	e.ClearHint(1, kvstore.Version{Key: "c", Seq: 4}) // delivered
	e.StoreHint(2, kvstore.Version{Key: "a", Seq: 5, Value: "a5"})
	e.StoreHint(2, kvstore.Version{Key: "d", Seq: 1, Value: "d1"})
	e.DropHintTarget(2)

	want := map[int]map[string]kvstore.Version{1: {
		"a": {Key: "a", Seq: 5, Value: "a5"},
		"b": {Key: "b", Seq: 7, Value: "b7"},
	}}
	if got := e.Hints(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pending set %+v, want %+v", got, want)
	}
	if st := e.HintStats(); st.Stored != 5 || st.Replayed != 1 || st.Dropped != 2 {
		t.Fatalf("stats %+v, want 5 stored, 1 replayed, 2 dropped", st)
	}
	e = reopen(t, e, opts)
	if got := e.Hints(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after restart: pending set %+v, want %+v", got, want)
	}
}

// TestHintFsyncPolicies checks every -fsync policy carries hints across a
// clean restart, and that an unknown policy is rejected.
func TestHintFsyncPolicies(t *testing.T) {
	for _, policy := range []string{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy, func(t *testing.T) {
			opts := Options{Dir: t.TempDir(), Fsync: policy}
			e := openTestEngine(t, opts)
			for i := 0; i < 50; i++ {
				e.StoreHint(1, kvstore.Version{Key: fmt.Sprintf("k%d", i), Seq: uint64(i + 1), Value: "v"})
			}
			if st := reopen(t, e, opts).HintStats(); st.Pending != 50 {
				t.Fatalf("policy %s: %d hints survived reopen, want 50", policy, st.Pending)
			}
		})
	}
	if _, err := Open(Options{Dir: t.TempDir(), Fsync: "sometimes"}); err == nil {
		t.Fatal("unknown fsync policy must be rejected")
	}
}

// TestHintIntervalReplaysCleanPrefix is the crash property of the interval
// policy: whatever byte prefix of the log survives (torn tail included),
// replay recovers a hint set the full log's fold subsumes — never garbage,
// never a partial record.
func TestHintIntervalReplaysCleanPrefix(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Fsync: FsyncInterval}
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		e.StoreHint(i%3, kvstore.Version{Key: fmt.Sprintf("k%d", i%7), Seq: uint64(i + 1), Value: "v"})
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(onlySegment(t, opts.Dir))
	if err != nil {
		t.Fatal(err)
	}
	replay := func(b []byte) map[int]map[string]kvstore.Version {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), b, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(Options{Dir: dir, Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return r.Hints()
	}
	fullSet := replay(full)
	if len(fullSet) == 0 {
		t.Fatal("full replay recovered nothing")
	}
	for cut := 0; cut <= len(full); cut += 13 {
		for target, kh := range replay(full[:cut]) {
			for key, v := range kh {
				if fv, ok := fullSet[target][key]; !ok || fv.Seq < v.Seq {
					t.Fatalf("cut %d: replayed (%d, %q, seq %d) not subsumed by the full fold", cut, target, key, v.Seq)
				}
			}
		}
	}
}

// TestHintsSurviveFlushes pins the rotation seed: the segments a hint was
// logged in are deleted once their memtables flush, so a pending hint
// survives only because every new segment opens with the pending set.
// Hints change between flushes too, so the seed must be the live set, not
// the one at open.
func TestHintsSurviveFlushes(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Fsync: FsyncNever, MemtableBytes: 4 << 10, CompactAt: 100}
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		e.StoreHint(i%2, kvstore.Version{Key: fmt.Sprintf("h%d", i), Seq: 1, Value: "hint"})
	}
	seq := uint64(0)
	flushTo := func(n int64) {
		for e.Metrics().Flushes < n {
			seq++
			e.Apply(kvstore.Version{Key: fmt.Sprintf("d%d", seq%300), Seq: seq, Value: "data-data-data-data"}, 0)
		}
	}
	flushTo(1)
	e.ClearHint(0, kvstore.Version{Key: "h0", Seq: 1})
	e.StoreHint(1, kvstore.Version{Key: "h1", Seq: 2, Value: "newer"})
	e.StoreHint(3, kvstore.Version{Key: "late", Seq: 1, Value: "x"})
	flushTo(3)
	want := e.Hints()
	e = reopen(t, e, opts)
	if m := e.Metrics(); m.Recovered == 0 {
		t.Fatal("no data recovered")
	}
	if got := e.Hints(); !reflect.DeepEqual(got, want) {
		t.Fatalf("hints after %d flushes and a restart:\n got  %+v\n want %+v", 3, got, want)
	}
}

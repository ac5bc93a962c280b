package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pbs/internal/kvstore"
)

func openTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestEngineBasic(t *testing.T) {
	e := openTestEngine(t, Options{})

	if ok := e.Apply(kvstore.Version{Key: "a", Seq: 1, Value: "x"}, 1.0); !ok {
		t.Fatal("first apply rejected")
	}
	if ok := e.Apply(kvstore.Version{Key: "a", Seq: 1, Value: "dup"}, 2.0); ok {
		t.Fatal("duplicate seq applied")
	}
	if ok := e.Apply(kvstore.Version{Key: "a", Seq: 3, Value: "y"}, 3.0); !ok {
		t.Fatal("newer apply rejected")
	}
	if ok := e.Apply(kvstore.Version{Key: "a", Seq: 2, Value: "stale"}, 4.0); ok {
		t.Fatal("stale apply accepted")
	}

	v, found := e.Get("a")
	if !found || v.Value != "y" || v.Seq != 3 {
		t.Fatalf("Get(a) = %+v, %v", v, found)
	}
	if _, found := e.Get("missing"); found {
		t.Fatal("missing key found")
	}
	if got := e.Seq("a"); got != 3 {
		t.Fatalf("Seq(a) = %d", got)
	}
	if got := e.Len(); got != 1 {
		t.Fatalf("Len = %d", got)
	}
	applied, ignored := e.Stats()
	if applied != 2 || ignored != 2 {
		t.Fatalf("Stats = %d, %d", applied, ignored)
	}
	if sum := e.Summary(); len(sum) != 1 || sum["a"] != 3 {
		t.Fatalf("Summary = %v", sum)
	}
}

func TestEngineTombstone(t *testing.T) {
	e := openTestEngine(t, Options{})
	e.Apply(kvstore.Version{Key: "k", Seq: 1, Value: "v"}, 1.0)
	e.Apply(kvstore.Version{Key: "k", Seq: 2, Tombstone: true}, 2.0)

	v, found := e.Get("k")
	if !found || !v.Tombstone || v.Seq != 2 {
		t.Fatalf("tombstone Get = %+v, %v", v, found)
	}
	// A stale live version must not resurrect the key.
	if ok := e.Apply(kvstore.Version{Key: "k", Seq: 1, Value: "v"}, 3.0); ok {
		t.Fatal("stale live write resurrected tombstoned key")
	}
	// Tombstones participate in summaries so anti-entropy replicates them.
	if sum := e.Summary(); sum["k"] != 2 {
		t.Fatalf("tombstone missing from summary: %v", sum)
	}
}

func TestEngineRecovery(t *testing.T) {
	for _, policy := range []string{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			e, err := Open(Options{Dir: dir, Fsync: policy})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				e.Apply(kvstore.Version{Key: fmt.Sprintf("k%d", i), Seq: uint64(i + 1), Value: fmt.Sprintf("v%d", i)}, float64(i))
			}
			e.Apply(kvstore.Version{Key: "k7", Seq: 200, Tombstone: true}, 100)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := Open(Options{Dir: dir, Fsync: policy})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if m := r.Metrics(); m.Recovered != 100 || m.WALTruncated != 0 {
				t.Fatalf("recovered %d keys (WALTruncated %d), want 100 from a clean log", m.Recovered, m.WALTruncated)
			}
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%d", i)
				v, found := r.Get(key)
				if i == 7 {
					if !found || !v.Tombstone || v.Seq != 200 {
						t.Fatalf("tombstone lost in recovery: %+v, %v", v, found)
					}
					continue
				}
				if !found || v.Value != fmt.Sprintf("v%d", i) || v.Seq != uint64(i+1) {
					t.Fatalf("Get(%s) after recovery = %+v, %v", key, v, found)
				}
			}
		})
	}
}

func TestEngineTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		e.Apply(kvstore.Version{Key: fmt.Sprintf("k%d", i), Seq: 1, Value: "v"}, float64(i))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the WAL tail mid-record: truncate the (single) segment by a few
	// bytes, then flip a bit inside what is now the last full record.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one wal segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-5]
	torn[len(torn)-10] ^= 0x40
	if err := os.WriteFile(segs[0], torn, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// The clean prefix must survive: all but the last two records (one torn,
	// one bit-flipped) are intact.
	n := int(r.Metrics().Recovered)
	if n < 48 || n > 49 {
		t.Fatalf("recovered %d keys from torn log, want 48", n)
	}
	if m := r.Metrics(); m.WALTruncated != 1 {
		t.Fatalf("WALTruncated = %d after a torn data record, want 1", m.WALTruncated)
	}
	for i := 0; i < n; i++ {
		if _, found := r.Get(fmt.Sprintf("k%d", i)); !found {
			t.Fatalf("clean-prefix key k%d lost", i)
		}
	}
}

func TestEngineFlushAndCompact(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Fsync: FsyncNever, MemtableBytes: 2 << 10, CompactAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 200
	for round := 1; round <= 3; round++ {
		for i := 0; i < keys; i++ {
			e.Apply(kvstore.Version{
				Key:   fmt.Sprintf("k%03d", i),
				Seq:   uint64(round*1000 + i),
				Value: fmt.Sprintf("v%d-%d-%s", round, i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
			}, float64(round*keys+i))
		}
	}
	// Wait for background flushes/compactions to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := e.Metrics()
		if m.Flushes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no flush happened: %+v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%03d", i)
		v, found := e.Get(key)
		if !found || v.Seq != uint64(3000+i) {
			t.Fatalf("Get(%s) = %+v, %v (want seq %d)", key, v, found, 3000+i)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Len(); got != keys {
		t.Fatalf("Len after restart = %d, want %d", got, keys)
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%03d", i)
		v, found := r.Get(key)
		if !found || v.Seq != uint64(3000+i) {
			t.Fatalf("restart Get(%s) = %+v, %v", key, v, found)
		}
		// The byte-key lookup reads the same record from every tier.
		if vb, fb := r.GetBytes([]byte(key)); fb != found || vb != v {
			t.Fatalf("restart GetBytes(%s) = %+v, %v; Get gives %+v, %v", key, vb, fb, v, found)
		}
	}
	if v, found := r.GetBytes([]byte("absent")); found || v != (kvstore.Version{}) {
		t.Fatalf("GetBytes(absent) = %+v, %v; want the zero version", v, found)
	}
}

func TestEngineConcurrentApply(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Fsync: FsyncAlways, MemtableBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				e.Apply(kvstore.Version{
					Key:   fmt.Sprintf("w%d-k%d", w, i),
					Seq:   uint64(w*perWorker + i + 1),
					Value: "v",
				}, float64(i))
			}
		}(w)
	}
	wg.Wait()
	m := e.Metrics()
	if m.WALAppends != workers*perWorker {
		t.Fatalf("WALAppends = %d, want %d", m.WALAppends, workers*perWorker)
	}
	t.Logf("group commit: %d appends over %d fsyncs (%.1f per batch)",
		m.WALAppends, m.WALSyncs, float64(m.WALAppends)/float64(m.WALSyncs))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			if _, found := r.Get(fmt.Sprintf("w%d-k%d", w, i)); !found {
				t.Fatalf("acked write w%d-k%d lost", w, i)
			}
		}
	}
}

// dirEntries lists dir's file names.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, ent := range ents {
		names[i] = ent.Name()
	}
	return names
}

// TestEngineCloseReopenDuringBackgroundWork closes the engine right after
// writes that trigger flushes and compactions — so one is usually still
// writing and removing files — and reopens the same directory at once,
// round after round. Close must wait for that work: the directory must not
// change after Close returns, and every key ever applied must read back.
func TestEngineCloseReopenDuringBackgroundWork(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Fsync: FsyncNever, MemtableBytes: 1 << 10, CompactAt: 2}
	const rounds, perRound = 20, 120
	for round := 0; round < rounds; round++ {
		e, err := Open(opts)
		if err != nil {
			t.Fatalf("round %d: reopen right after Close: %v", round, err)
		}
		for r := 0; r < round; r++ {
			for i := 0; i < perRound; i += 17 {
				key := fmt.Sprintf("r%02d-k%03d", r, i)
				if v, found := e.Get(key); !found || v.Seq != uint64(r*perRound+i+1) {
					t.Fatalf("round %d: Get(%s) = %+v, %v", round, key, v, found)
				}
			}
		}
		for i := 0; i < perRound; i++ {
			e.Apply(kvstore.Version{
				Key:   fmt.Sprintf("r%02d-k%03d", round, i),
				Seq:   uint64(round*perRound + i + 1),
				Value: "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
			}, float64(round))
		}
		if err := e.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		before := dirEntries(t, dir)
		time.Sleep(5 * time.Millisecond)
		if after := dirEntries(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("round %d: directory changed after Close returned:\n before %v\n after  %v", round, before, after)
		}
	}
}

// TestEngineApplyBatchOneGroupCommit: a 64-version batch on a fresh
// FsyncAlways engine costs exactly one fsync, answers per version exactly
// as sequential Apply does (stale duplicates included), and survives
// close and reopen.
func TestEngineApplyBatchOneGroupCommit(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	seqRef := kvstore.NewSynced()
	var pre []kvstore.Version
	for i := 0; i < 8; i++ {
		pre = append(pre, kvstore.Version{Key: fmt.Sprintf("k%d", i), Seq: 10, Value: "old"})
	}
	for _, v := range pre {
		e.Apply(v, 0)
		seqRef.Apply(v, 0)
	}
	vers := make([]kvstore.Version, 64)
	for i := range vers {
		// k0..k7 already hold seq 10: even ones get a stale seq 5, odd ones
		// a newer seq 20; the batch also repeats k40 (stale second copy)
		// and writes k41 as a tombstone.
		seq := uint64(20)
		if i < 8 && i%2 == 0 {
			seq = 5
		}
		vers[i] = kvstore.Version{Key: fmt.Sprintf("k%d", i), Seq: seq, Value: fmt.Sprintf("v%d", i)}
	}
	vers[40] = kvstore.Version{Key: "k40", Seq: 30, Value: "v40"}
	vers[63] = kvstore.Version{Key: "k40", Seq: 25, Value: "stale"}
	vers[41].Tombstone = true
	vers[41].Value = ""

	before := e.Metrics().WALSyncs
	applied := make([]bool, len(vers))
	e.ApplyBatch(vers, 1, applied)
	if got := e.Metrics().WALSyncs - before; got != 1 {
		t.Errorf("64-version batch cost %d fsyncs, want 1", got)
	}
	for i, v := range vers {
		if want := seqRef.Apply(v, 1); applied[i] != want {
			t.Errorf("batch entry %d (%s seq %d): applied %v, sequential Apply %v", i, v.Key, v.Seq, applied[i], want)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, want := range seqRef.Versions() {
		got, found := r.Get(want.Key)
		if !found || got.Seq != want.Seq || got.Value != want.Value || got.Tombstone != want.Tombstone {
			t.Errorf("after reopen %s = %+v (found %v), want %+v", want.Key, got, found, want)
		}
	}
	if n := r.Len(); n != seqRef.Len() {
		t.Errorf("reopened engine holds %d keys, want %d", n, seqRef.Len())
	}
}

package storage

// Mapped-table coverage: reads race flushes and compactions that unmap
// the tables they read from, a closed engine answers lookups without
// touching a mapping, and damage to a table file is caught by the frame
// checks rather than read as other data.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbs/internal/kvstore"
)

// mappedValue is the value written for key at seq: every read can be
// checked against the version it claims to be.
func mappedValue(key string, seq uint64) string {
	return fmt.Sprintf("%s@%d-%s", key, seq, strings.Repeat("v", 24))
}

// onlyTable returns the path of the directory's single SSTable.
func onlyTable(t *testing.T, dir string) string {
	t.Helper()
	tables, err := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
	if err != nil || len(tables) != 1 {
		t.Fatalf("want one sstable, got %v (%v)", tables, err)
	}
	return tables[0]
}

// TestMappedReadsRaceCompaction: readers call Get, GetBytes, Range and
// Summary while writers force flushes and at least two compactions. Every
// read returns at least the newest version acked before it began, with
// that version's value; values returned along the way still compare equal
// once every table they came from has been unmapped.
func TestMappedReadsRaceCompaction(t *testing.T) {
	e := openTestEngine(t, Options{Fsync: FsyncNever, MemtableBytes: 4 << 10, CompactAt: 2})
	const keys, writers, readers = 120, 3, 3
	var acked [keys]atomic.Uint64
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Writer w owns keys i ≡ w (mod writers), so its seqs per key
			// only grow.
			for seq := uint64(1); !stop.Load(); seq++ {
				for i := w; i < keys; i += writers {
					k := key(i)
					if !e.Apply(kvstore.Version{Key: k, Seq: seq, Value: mappedValue(k, seq)}, 0) {
						t.Errorf("Apply(%s, seq %d) rejected", k, seq)
						return
					}
					acked[i].Store(seq)
				}
			}
		}(w)
	}

	kept := make([][]kvstore.Version, readers)
	check := func(r int, v kvstore.Version, found bool, want uint64) {
		switch {
		case !found && want > 0:
			t.Errorf("%s absent after seq %d was acked", v.Key, want)
		case found && v.Seq < want:
			t.Errorf("%s read seq %d after seq %d was acked", v.Key, v.Seq, want)
		case found && v.Value != mappedValue(v.Key, v.Seq):
			t.Errorf("%s seq %d read value %q", v.Key, v.Seq, v.Value)
		case found && len(kept[r]) < 4096:
			kept[r] = append(kept[r], v)
		}
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; !stop.Load(); n++ {
				reads.Add(1)
				i := (n*7 + r) % keys
				want := acked[i].Load()
				switch n % 4 {
				case 0:
					v, found := e.Get(key(i))
					check(r, v, found, want)
				case 1:
					v, found := e.GetBytes([]byte(key(i)))
					if found && v.Key != key(i) {
						t.Errorf("GetBytes(%s) returned key %s", key(i), v.Key)
					}
					check(r, v, found, want)
				case 2:
					var floor [keys]uint64
					for j := range floor {
						floor[j] = acked[j].Load()
					}
					e.Range(func(v kvstore.Version) {
						var j int
						fmt.Sscanf(v.Key, "k%d", &j)
						check(r, v, true, floor[j])
					})
				case 3:
					if got := e.Summary()[key(i)]; got < want {
						t.Errorf("Summary[%s] = %d after seq %d was acked", key(i), got, want)
					}
				}
			}
		}(r)
	}

	const minReads = 4000
	deadline := time.Now().Add(20 * time.Second)
	for (e.Metrics().Compactions < 2 || reads.Load() < minReads) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if m := e.Metrics(); m.Compactions < 2 || reads.Load() < minReads {
		t.Fatalf("%d compactions (%d flushes) and %d reads before the deadline, want at least 2 and %d",
			m.Compactions, m.Flushes, reads.Load(), minReads)
	}
	t.Logf("%d reads across %d flushes and %d compactions", reads.Load(), e.Metrics().Flushes, e.Metrics().Compactions)
	// Close unmaps every table still live; the compactions unmapped the
	// rest. No value read along the way may have aliased a mapping.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, vs := range kept {
		for _, v := range vs {
			if v.Value != mappedValue(v.Key, v.Seq) {
				t.Fatalf("%s seq %d now reads %q after its table was unmapped", v.Key, v.Seq, v.Value)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("readers kept no values")
	}
}

// TestClosedEngineLookups: after Close, every lookup answers absent or
// zero, including for keys whose tables Close unmapped.
func TestClosedEngineLookups(t *testing.T) {
	e := openTestEngine(t, Options{Fsync: FsyncNever, MemtableBytes: 1 << 10})
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%03d", i)
		e.Apply(kvstore.Version{Key: k, Seq: 1, Value: mappedValue(k, 1)}, 0)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Metrics().SSTables == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.Metrics().SSTables == 0 {
		t.Fatal("no table was flushed")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%03d", i)
		if v, found := e.Get(k); found || v.Seq != 0 || v.Value != "" {
			t.Fatalf("Get(%s) after Close = %+v, %v", k, v, found)
		}
		if v, found := e.GetBytes([]byte(k)); found || v != (kvstore.Version{}) {
			t.Fatalf("GetBytes(%s) after Close = %+v, %v", k, v, found)
		}
		if seq := e.Seq(k); seq != 0 {
			t.Fatalf("Seq(%s) after Close = %d", k, seq)
		}
	}
	e.Range(func(v kvstore.Version) { t.Fatalf("Range after Close visited %+v", v) })
	if n, sum := e.Len(), e.Summary(); n != 0 || len(sum) != 0 {
		t.Fatalf("after Close: Len %d, Summary %v", n, sum)
	}
}

// TestTableValueFlipReadsAbsent: a value byte flipped in a table file
// after Open reaches the mapping; the frame's CRC check turns it into an
// absent read, never a different value, and leaves other keys readable.
func TestTableValueFlipReadsAbsent(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Fsync: FsyncNever}
	e := openTestEngine(t, opts)
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%03d", i)
		e.Apply(kvstore.Version{Key: k, Seq: 1, Value: mappedValue(k, 1)}, 0)
	}
	e = reopen(t, e, opts) // recovery flushes the WAL into one table
	path := onlyTable(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const victim = "k017"
	at := bytes.Index(data, []byte(mappedValue(victim, 1)))
	if at < 0 {
		t.Fatalf("value of %s not found in %s", victim, path)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite in place: truncating a mapped file would fault its readers.
	if _, err := f.WriteAt([]byte{data[at+5] ^ 0x20}, int64(at+5)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if v, found := e.Get(victim); found {
		t.Fatalf("Get(%s) of a flipped value = %+v, want absent", victim, v)
	}
	if v, found := e.GetBytes([]byte(victim)); found {
		t.Fatalf("GetBytes(%s) of a flipped value = %+v, want absent", victim, v)
	}
	e.Range(func(v kvstore.Version) {
		if v.Key == victim || v.Value != mappedValue(v.Key, 1) {
			t.Fatalf("Range visited %+v", v)
		}
	})
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%03d", i)
		if v, found := e.Get(k); k != victim && (!found || v.Value != mappedValue(k, 1)) {
			t.Fatalf("Get(%s) next to a flipped value = %+v, %v", k, v, found)
		}
	}
}

// TestDamagedTableFailsOpen: a table truncated mid-frame, or whose keys
// are out of order (the compaction merge relies on key order), fails
// Open rather than loading a prefix.
func TestDamagedTableFailsOpen(t *testing.T) {
	frames := func(keys ...string) []byte {
		var out []byte
		for _, k := range keys {
			out = append(out, encodeRecord(kvstore.Version{Key: k, Seq: 1, Value: mappedValue(k, 1)})...)
		}
		return out
	}
	whole := frames("a", "b", "c")
	for name, data := range map[string][]byte{
		"truncated": whole[:len(whole)-3],
		"unsorted":  frames("a", "c", "b"),
		"duplicate": frames("a", "b", "b"),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "sst-0000000000000001.sst"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := Open(Options{Dir: dir, Fsync: FsyncNever})
			if err == nil {
				e.Close()
				t.Fatal("Open succeeded on a damaged table")
			}
			if !errors.Is(err, errCorruptRecord) {
				t.Fatalf("Open: %v, want errCorruptRecord", err)
			}
		})
	}
	// The undamaged table opens.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "sst-0000000000000001.sst"), whole, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if v, found := e.Get("c"); !found || v.Value != mappedValue("c", 1) {
		t.Fatalf("Get(c) = %+v, %v", v, found)
	}
}

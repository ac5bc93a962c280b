package storage

// Crash recovery. On open the engine scans its directory, deletes any
// leftover .tmp files (torn flushes that never renamed into place), loads
// SSTables in generation order, and replays WAL segments in generation
// order — stopping at the first torn or corrupt record, so the clean
// prefix is authoritative and a torn tail costs only the records past it
// (which were never acked durable under FsyncAlways). Hint records fold
// into the pending hint set through the same kvstore.Hints fold the live
// path uses. Recovered data records are flushed straight to a fresh
// SSTable, a new segment is seeded with the recovered hints, and only then
// are the old segments deleted, restoring the steady-state invariant of a
// single live WAL segment that mirrors the memtable and the hint set.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"pbs/internal/kvstore"
)

func removeFile(path string) { os.Remove(path) }

// parseGen extracts the generation from "wal-%016d.log"/"sst-%016d.sst"
// names.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if len(name) <= len(prefix)+len(suffix) || name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var gen uint64
	if _, err := fmt.Sscanf(name[len(prefix):len(name)-len(suffix)], "%d", &gen); err != nil {
		return 0, false
	}
	return gen, true
}

// replayWAL reads a segment's clean prefix into the recovery memtable,
// newest-seq-wins against both the memtable and the already-loaded tables,
// and its hint records into the hint set. It never fails on corruption:
// the clean prefix is the answer, and the stop is counted in walTruncated.
func (e *Engine) replayWAL(path string, mem *memtable) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("storage: replay wal: %w", err)
	}
	defer f.Close()
	e.replay(bufio.NewReader(f), mem)
	return nil
}

// replay folds one segment's records into mem and the hint set, up to the
// first record that is torn or fails its checks.
func (e *Engine) replay(br *bufio.Reader, mem *memtable) {
	for {
		rec, _, err := readRecord(br)
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			// Torn or bit-flipped tail: everything before it is intact, and
			// the damaged suffix was never acknowledged as durable.
			e.walTruncated = 1
			return
		}
		v := rec.Version
		switch rec.kind {
		case flagHintStore:
			e.hints.Store(rec.target, v)
			continue
		case flagHintClear:
			e.hints.Clear(rec.target, v)
			continue
		}
		if cur, ok := mem.get(v.Key); ok && v.Seq <= cur.Seq {
			continue
		}
		if ent, ok := e.lookupTableMeta(v.Key); ok && v.Seq <= ent.seq {
			continue // already persisted in an SSTable (crash before WAL cleanup)
		}
		mem.put(v)
	}
}

// lookupTableMeta finds the newest table-resident record for key (used
// during recovery, before the engine is shared).
func (e *Engine) lookupTableMeta(key string) (tableEntry, bool) {
	for i := len(e.tables) - 1; i >= 0; i-- {
		if ent, ok := e.tables[i].index[key]; ok {
			return ent, true
		}
	}
	return tableEntry{}, false
}

// recover loads persisted state and opens a fresh WAL segment. Called once
// from Open, before the engine is visible to other goroutines.
func (e *Engine) recover() error {
	entries, err := os.ReadDir(e.opts.Dir)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	var sstGens, walGens []uint64
	for _, ent := range entries {
		name := ent.Name()
		if filepath.Ext(name) == ".tmp" {
			removeFile(filepath.Join(e.opts.Dir, name))
			continue
		}
		if gen, ok := parseGen(name, "sst-", ".sst"); ok {
			sstGens = append(sstGens, gen)
			if gen > e.gen {
				e.gen = gen
			}
		}
		if gen, ok := parseGen(name, "wal-", ".log"); ok {
			walGens = append(walGens, gen)
			if gen > e.gen {
				e.gen = gen
			}
		}
	}
	sort.Slice(sstGens, func(i, j int) bool { return sstGens[i] < sstGens[j] })
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })

	for _, gen := range sstGens {
		t, err := openSSTable(e.sstPath(gen), gen)
		if err != nil {
			return err
		}
		e.tables = append(e.tables, t)
	}

	recovered := newMemtable()
	for _, gen := range walGens {
		if err := e.replayWAL(e.walPath(gen), recovered); err != nil {
			return err
		}
	}

	// Persist the replayed records immediately so every old WAL segment can
	// go: the steady state after recovery is tables + one empty segment.
	if len(recovered.data) > 0 {
		gen := e.nextGenLocked()
		versions := make([]kvstore.Version, 0, len(recovered.data))
		for _, v := range recovered.data {
			versions = append(versions, v)
		}
		if err := writeSSTable(e.sstPath(gen), versions); err != nil {
			return err
		}
		t, err := openSSTable(e.sstPath(gen), gen)
		if err != nil {
			return err
		}
		e.tables = append(e.tables, t)
	}
	e.hints.MarkRestored()
	w, err := openWAL(e.walPath(e.nextGenLocked()), e.opts.Fsync, e.hintSeedLocked())
	if err != nil {
		return err
	}
	e.wal = w
	for _, gen := range walGens {
		removeFile(e.walPath(gen))
	}
	e.recovered = int64(len(e.ownersLocked()))
	return nil
}

package storage

// Memtable flush and background compaction.
//
// Flush: when the memtable crosses its size threshold (and no flush is in
// flight) the engine freezes it, rotates the WAL so the frozen contents
// correspond exactly to the rotated-out segment, and a background goroutine
// writes the frozen set to a new SSTable. Only after the table is durable
// are the covered WAL segments deleted — a crash mid-flush just replays
// them. The new segment opens with the pending hint set, durable before
// any append, so the deleted segments take no pending hint with them.
//
// Compaction: when enough tables accumulate, a background merge folds a
// snapshot of them newest-seq-wins into one table and swaps it in. Tables
// flushed while the merge ran are preserved (they are strictly newer per
// key, because Apply only admits newer seqs). A crash between the rename
// and the old-file deletes is safe: the merge is idempotent and the
// leftover tables hold only records the merged table already subsumes.

import "pbs/internal/kvstore"

// maybeFlushLocked freezes the memtable and kicks a background flush when
// it crosses the threshold. Caller holds e.mu.
func (e *Engine) maybeFlushLocked() {
	if e.mem.bytes < e.opts.MemtableBytes || e.frozen != nil || e.flushing || e.closed {
		return
	}
	newSeg := e.walPath(e.nextGenLocked())
	e.hmu.Lock()
	old, err := e.wal.rotate(newSeg, e.hintSeedLocked())
	e.hmu.Unlock()
	if err != nil {
		// Can't open a new segment; keep appending to the old one and retry
		// at the next threshold crossing.
		e.flushErrs++
		return
	}
	e.frozen = e.mem
	e.mem = newMemtable()
	e.frozenWAL = append(e.frozenWAL, old)
	e.flushing = true
	gen := e.nextGenLocked()
	e.bg.Add(1)
	go e.flushFrozen(e.frozen, gen)
}

// flushFrozen writes the frozen memtable to a new SSTable. On success the
// covered WAL segments are deleted; on failure the frozen records fold back
// into the live memtable (their WAL segments stay on disk, so no acked
// write is lost either way).
func (e *Engine) flushFrozen(frozen *memtable, gen uint64) {
	defer e.bg.Done()
	versions := make([]kvstore.Version, 0, len(frozen.data))
	for _, v := range frozen.data {
		versions = append(versions, v)
	}
	path := e.sstPath(gen)
	err := writeSSTable(path, versions)
	var t *sstable
	if err == nil {
		t, err = openSSTable(path, gen)
	}

	e.mu.Lock()
	if err != nil {
		for _, v := range frozen.data {
			e.mem.putNewer(v)
		}
		e.frozen = nil
		e.flushing = false
		e.flushErrs++
		e.mu.Unlock()
		return
	}
	e.tables = append(e.tables, t)
	e.frozen = nil
	e.flushing = false
	e.flushes++
	stale := e.frozenWAL
	e.frozenWAL = nil
	e.maybeCompactLocked()
	e.mu.Unlock()

	for _, seg := range stale {
		removeFile(seg)
	}
}

// maybeCompactLocked starts a background merge of the current table set
// when it is large enough. Caller holds e.mu.
func (e *Engine) maybeCompactLocked() {
	if len(e.tables) < e.opts.CompactAt || e.compacting || e.closed {
		return
	}
	e.compacting = true
	snapshot := append([]*sstable(nil), e.tables...)
	gen := e.nextGenLocked()
	e.bg.Add(1)
	go e.compact(snapshot, gen)
}

// compact merges snapshot newest-seq-wins into one table and swaps it in
// for the snapshot prefix of e.tables.
func (e *Engine) compact(snapshot []*sstable, gen uint64) {
	defer e.bg.Done()
	merged := make(map[string]kvstore.Version)
	for _, t := range snapshot { // oldest → newest; later records win
		err := t.iterate(func(v kvstore.Version) error {
			if cur, ok := merged[v.Key]; !ok || v.Seq > cur.Seq {
				merged[v.Key] = v
			}
			return nil
		})
		if err != nil {
			e.mu.Lock()
			e.compacting = false
			e.flushErrs++
			e.mu.Unlock()
			return
		}
	}
	versions := make([]kvstore.Version, 0, len(merged))
	for _, v := range merged {
		// Tombstones are kept forever: dropping one while any replica still
		// holds an older live version would let anti-entropy resurrect the
		// delete.
		versions = append(versions, v)
	}
	path := e.sstPath(gen)
	err := writeSSTable(path, versions)
	var t *sstable
	if err == nil {
		t, err = openSSTable(path, gen)
	}

	e.mu.Lock()
	if err != nil {
		e.compacting = false
		e.flushErrs++
		e.mu.Unlock()
		removeFile(path)
		return
	}
	// The snapshot is a prefix of e.tables: flushes only append, and no
	// other compaction ran (e.compacting gates entry).
	replaced := e.tables[:len(snapshot)]
	e.tables = append([]*sstable{t}, e.tables[len(snapshot):]...)
	e.compacting = false
	e.compactions++
	e.mu.Unlock()

	for _, old := range replaced {
		old.close()
		removeFile(old.path)
	}
}

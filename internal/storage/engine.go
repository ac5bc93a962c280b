// Package storage is the durable per-node storage engine: a group-commit
// write-ahead log in front of an in-memory memtable that flushes to
// immutable sorted SSTables, with background newest-seq-wins compaction.
// It implements kvstore.Engine, so the server's node layer swaps it in
// behind the same Apply/Get/Seq/Range/Summary surface the in-memory store
// exposes — and, unlike that store, an acked Apply survives SIGKILL:
// recovery replays the clean WAL prefix (stopping at a torn tail) on top
// of the persisted tables.
//
// Write path: Apply checks newness against the merged view, stages the
// record to the WAL, updates the memtable, then (outside the engine lock)
// waits for the WAL commit per the fsync policy; ApplyBatch stages a whole
// replica batch leg the same way and waits for one commit. Read path:
// memtable → frozen memtable → SSTables newest-first; the first hit is the
// newest record because Apply only ever admits strictly newer sequence
// numbers.
// Deletes are tombstone versions that flow through this pipeline — and
// through replication, handoff and anti-entropy — like any other write.
//
// Hints: the node's pending hinted-handoff set (kvstore.Hints) lives in
// memory under its own lock and is logged to the same WAL as the data, so
// one fsync policy and one replay cover both (see wal.go).
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"pbs/internal/kvstore"
)

const (
	defaultMemtableBytes = 4 << 20
	defaultCompactAt     = 4
)

// Options configures an Engine.
type Options struct {
	// Dir is the node's data directory (created if missing). Required.
	Dir string
	// Fsync is the WAL durability policy: FsyncAlways (group commit before
	// every ack, the default), FsyncInterval (background 100ms fsync) or
	// FsyncNever (OS page cache only).
	Fsync string
	// MemtableBytes is the flush threshold (default 4 MiB).
	MemtableBytes int64
	// CompactAt is the SSTable count that triggers background compaction
	// (default 4).
	CompactAt int
}

func (o *Options) setDefaults() error {
	if o.Dir == "" {
		return fmt.Errorf("storage: Options.Dir is required")
	}
	if o.Fsync == "" {
		o.Fsync = FsyncAlways
	}
	if !ValidPolicy(o.Fsync) {
		return fmt.Errorf("storage: unknown fsync policy %q", o.Fsync)
	}
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = defaultMemtableBytes
	}
	if o.CompactAt <= 0 {
		o.CompactAt = defaultCompactAt
	}
	return nil
}

// Metrics is a snapshot of the engine's internal counters, surfaced
// through the server's /stats endpoint.
type Metrics struct {
	Recovered   int64 // distinct keys recovered from disk at open
	Flushes     int64 // memtable→SSTable flushes completed
	FlushErrs   int64 // flushes that failed and folded back into the memtable
	Compactions int64 // background merges completed
	SSTables    int   // live tables right now
	WALAppends  int64 // records staged to the WAL
	WALSyncs    int64 // fsyncs issued (appends/syncs = mean group-commit size)
	WALErrs     int64 // WAL staging/flush/sync failures
	// WALTruncated is 1 when recovery stopped replaying a segment before
	// its end (a torn tail after a crash, or a record this build cannot
	// decode); the clean prefix before it was replayed.
	WALTruncated int64
}

// Engine is the durable kvstore.Engine. Safe for concurrent use; the
// internal lock is never held across an fsync (group commit handles
// durability waits) or a flush/compaction's file I/O. Lock order:
// mu, then hmu, then the WAL's own lock.
type Engine struct {
	opts Options

	mu         sync.Mutex
	wal        *wal
	mem        *memtable
	frozen     *memtable // being flushed; immutable
	frozenWAL  []string  // rotated-out WAL segments, deletable after a successful flush
	tables     []*sstable
	gen        uint64 // last allocated file generation
	flushing   bool
	compacting bool
	closed     bool
	// bg tracks the background flush and compaction goroutines; Close
	// waits for them, so no file is written or removed after it returns.
	bg sync.WaitGroup

	// hmu guards hints and orders hint records in the WAL: a hint change
	// is staged while hmu is held, and a rotation seeds the new segment
	// from the set under hmu.
	hmu   sync.Mutex
	hints *kvstore.Hints

	applied, ignored, overread int64
	recovered                  int64
	flushes, flushErrs         int64
	compactions                int64
	walTruncated               int64
}

var _ kvstore.Engine = (*Engine)(nil)

// Open opens (or creates) the engine at opts.Dir, running recovery: load
// SSTables, replay the clean prefix of any WAL segments, flush the result,
// and start fresh. Close must be called to release file handles.
func Open(opts Options) (*Engine, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	e := &Engine{opts: opts, mem: newMemtable(), hints: kvstore.NewHints()}
	if err := e.recover(); err != nil {
		for _, t := range e.tables {
			t.close()
		}
		return nil, err
	}
	return e, nil
}

func (e *Engine) walPath(gen uint64) string {
	return filepath.Join(e.opts.Dir, fmt.Sprintf("wal-%016d.log", gen))
}

func (e *Engine) sstPath(gen uint64) string {
	return filepath.Join(e.opts.Dir, fmt.Sprintf("sst-%016d.sst", gen))
}

func (e *Engine) nextGenLocked() uint64 {
	e.gen++
	return e.gen
}

// lookupMetaLocked finds the newest record's metadata for key: memtable,
// then frozen memtable, then tables newest-first. The first hit wins
// because Apply only admits strictly newer seqs, so later tiers can only
// hold older records.
func (e *Engine) lookupMetaLocked(key string) (tableEntry, bool) {
	if v, ok := e.mem.get(key); ok {
		return tableEntry{seq: v.Seq, tombstone: v.Tombstone, writtenAt: v.WrittenAt}, true
	}
	if e.frozen != nil {
		if v, ok := e.frozen.get(key); ok {
			return tableEntry{seq: v.Seq, tombstone: v.Tombstone, writtenAt: v.WrittenAt}, true
		}
	}
	for i := len(e.tables) - 1; i >= 0; i-- {
		if ent, ok := e.tables[i].index[key]; ok {
			return ent, true
		}
	}
	return tableEntry{}, false
}

// Apply installs v if newer than the merged view, making it durable per
// the fsync policy before returning. The engine lock is released before
// the group-commit wait so concurrent appenders share one fsync.
func (e *Engine) Apply(v kvstore.Version, now float64) bool {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return false
	}
	tok, applied := e.applyLocked(v, now)
	e.mu.Unlock()
	// Durability wait happens outside e.mu: this is what lets a batch of
	// concurrent Apply calls ride one fsync.
	if applied {
		e.wal.commit(tok)
	}
	return applied
}

// ApplyBatch stages every version of vers under one engine lock hold, then
// waits for one group commit: tokens are monotonic across WAL rotations,
// so committing the highest staged one covers the whole batch. A failed
// token has nothing to wait for, so it must not stand in for the others.
func (e *Engine) ApplyBatch(vers []kvstore.Version, now float64, applied []bool) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		clear(applied[:len(vers)])
		return
	}
	var last walToken
	for i, v := range vers {
		tok, ok := e.applyLocked(v, now)
		applied[i] = ok
		if ok && !tok.failed {
			last = tok
		}
	}
	e.mu.Unlock()
	if last.n > 0 {
		e.wal.commit(last)
	}
}

// applyLocked stages v if it is newer than the merged view. Caller holds
// e.mu and commits the returned token after releasing it.
func (e *Engine) applyLocked(v kvstore.Version, now float64) (walToken, bool) {
	cur, ok := e.lookupMetaLocked(v.Key)
	if ok && v.Seq <= cur.seq {
		e.ignored++
		return walToken{}, false
	}
	v.WrittenAt = now
	tok := e.wal.stage(encodeRecord(v))
	e.mem.put(v)
	e.applied++
	e.maybeFlushLocked()
	return tok, true
}

// ApplyHinted stages a spare's hint for target before its data record, so
// one group commit makes both durable; the hint is committed even when
// the apply is ignored as not newer.
func (e *Engine) ApplyHinted(target int, v kvstore.Version, now float64) bool {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return false
	}
	e.hmu.Lock()
	tok, hinted := e.stageHintLocked(flagHintStore, target, v)
	e.hmu.Unlock()
	dtok, applied := e.applyLocked(v, now)
	e.mu.Unlock()
	switch {
	case applied:
		e.wal.commit(dtok) // staged after the hint, so its commit covers both
	case hinted:
		e.wal.commit(tok)
	}
	return applied
}

// stageHintLocked folds one hint change into the pending set and, when
// the set changed, stages its record. Caller holds e.hmu.
func (e *Engine) stageHintLocked(kind byte, target int, v kvstore.Version) (walToken, bool) {
	var changed bool
	if kind == flagHintStore {
		changed = e.hints.Store(target, v)
	} else {
		changed = e.hints.Clear(target, v)
	}
	if !changed {
		return walToken{}, false
	}
	return e.wal.stage(encodeHintRecord(kind, target, v)), true
}

// StoreHint buffers a hint for target, durable per the fsync policy
// before it returns.
func (e *Engine) StoreHint(target int, v kvstore.Version) {
	e.hmu.Lock()
	tok, ok := e.stageHintLocked(flagHintStore, target, v)
	e.hmu.Unlock()
	if ok {
		e.wal.commit(tok)
	}
}

// ClearHint removes a delivered hint. The clear is staged but not waited
// for: losing it to a crash only redelivers a hint, which the replica's
// apply rule ignores.
func (e *Engine) ClearHint(target int, v kvstore.Version) {
	e.hmu.Lock()
	defer e.hmu.Unlock()
	e.stageHintLocked(flagHintClear, target, v)
}

// DropHintTarget discards a departed target's hints, logging a clear for
// each.
func (e *Engine) DropHintTarget(target int) {
	e.hmu.Lock()
	defer e.hmu.Unlock()
	for _, v := range e.hints.DropTarget(target) {
		e.wal.stage(encodeHintRecord(flagHintClear, target, v))
	}
}

// Hints returns a copy of the pending hint set.
func (e *Engine) Hints() map[int]map[string]kvstore.Version {
	e.hmu.Lock()
	defer e.hmu.Unlock()
	return e.hints.Snapshot()
}

// HintStats reports the hint counters.
func (e *Engine) HintStats() kvstore.HintStats {
	e.hmu.Lock()
	defer e.hmu.Unlock()
	return e.hints.Stats()
}

// hintSeedLocked frames the pending hint set as store records — the seed
// of a fresh WAL segment. Nil when no hint is pending, so a rotation
// without hints does no extra work. Caller holds e.hmu.
func (e *Engine) hintSeedLocked() []byte {
	var seed []byte
	e.hints.Range(func(target int, v kvstore.Version) {
		seed = appendRecord(seed, flagHintStore, target, v)
	})
	return seed
}

// Get returns the newest record for key (live or tombstone).
func (e *Engine) Get(key string) (kvstore.Version, bool) {
	v, ok := lookup(e, key)
	if !ok {
		v.Key = key
	}
	return v, ok
}

// GetBytes is Get for a key held as bytes: the memtable and index lookups
// do not copy the key, and a miss returns the zero Version.
func (e *Engine) GetBytes(key []byte) (kvstore.Version, bool) {
	return lookup(e, key)
}

// lookup finds key's newest record: memtable, frozen memtable, then the
// tables newest first. Every tier is a map indexed by string(key), which
// converts a byte key without copying it.
func lookup[K ~string | ~[]byte](e *Engine, key K) (kvstore.Version, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v, ok := e.mem.data[string(key)]; ok {
		return v, true
	}
	if e.frozen != nil {
		if v, ok := e.frozen.data[string(key)]; ok {
			return v, true
		}
	}
	for i := len(e.tables) - 1; i >= 0; i-- {
		if ent, ok := e.tables[i].index[string(key)]; ok {
			v, err := e.tables[i].read(ent)
			if err != nil {
				// Treat a damaged table record as absent rather than wedging
				// reads; anti-entropy will re-fetch it from a peer.
				return kvstore.Version{}, false
			}
			return v, true
		}
	}
	e.overread++
	return kvstore.Version{}, false
}

// Seq returns the newest sequence number for key (0 when unknown).
func (e *Engine) Seq(key string) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent, ok := e.lookupMetaLocked(key); ok {
		return ent.seq
	}
	return 0
}

// ownersLocked maps every key to the tier holding its newest record:
// -1 memtable, -2 frozen, otherwise a table index. Built from indexes
// only — no value I/O.
func (e *Engine) ownersLocked() map[string]int {
	owners := make(map[string]int)
	for i, t := range e.tables {
		for k := range t.index {
			owners[k] = i // later (newer) tables overwrite earlier ones
		}
	}
	if e.frozen != nil {
		for k := range e.frozen.data {
			owners[k] = -2
		}
	}
	for k := range e.mem.data {
		owners[k] = -1
	}
	return owners
}

// Len returns the number of distinct keys (tombstones included).
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.ownersLocked())
}

// Summary returns the merged key→seq map for Merkle content summaries.
func (e *Engine) Summary() map[string]uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]uint64)
	for _, t := range e.tables {
		for k, ent := range t.index {
			out[k] = ent.seq
		}
	}
	if e.frozen != nil {
		for k, v := range e.frozen.data {
			out[k] = v.Seq
		}
	}
	for k, v := range e.mem.data {
		out[k] = v.Seq
	}
	return out
}

// Range calls f for every key's newest version while holding the engine
// lock; f must not call back into the engine. Table-resident values are
// copied out of their mappings as visited, so memory stays bounded by the
// key set.
func (e *Engine) Range(f func(kvstore.Version)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for key, owner := range e.ownersLocked() {
		var v kvstore.Version
		switch owner {
		case -1:
			v, _ = e.mem.get(key)
		case -2:
			v, _ = e.frozen.get(key)
		default:
			t := e.tables[owner]
			var err error
			if v, err = t.read(t.index[key]); err != nil {
				continue
			}
		}
		f(v)
	}
}

// Versions returns a copy of the full merged state.
func (e *Engine) Versions() []kvstore.Version {
	var out []kvstore.Version
	e.Range(func(v kvstore.Version) { out = append(out, v) })
	return out
}

// Stats reports applied/ignored counters.
func (e *Engine) Stats() (applied, ignored int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.applied, e.ignored
}

// Metrics snapshots the engine's durability counters.
func (e *Engine) Metrics() Metrics {
	appends, syncs, walErrs := e.wal.metrics()
	e.mu.Lock()
	defer e.mu.Unlock()
	return Metrics{
		Recovered:    e.recovered,
		Flushes:      e.flushes,
		FlushErrs:    e.flushErrs,
		Compactions:  e.compactions,
		SSTables:     len(e.tables),
		WALAppends:   appends,
		WALSyncs:     syncs,
		WALErrs:      walErrs,
		WALTruncated: e.walTruncated,
	}
}

// Close waits for a running flush or compaction to finish, flushes the WAL
// (memtable contents replay from it on next open) and releases file
// handles and table mappings, so the directory can be reopened as soon as
// Close returns. The engine rejects writes afterwards and holds nothing:
// its tables leave e.tables under e.mu before they are unmapped, so a
// lookup after Close finds nothing instead of reading an unmapped table.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.bg.Wait()
	e.mu.Lock()
	tables := e.tables
	e.tables = nil
	e.mem = newMemtable()
	wal := e.wal
	e.mu.Unlock()
	err := wal.close()
	for _, t := range tables {
		if cerr := t.close(); err == nil {
			err = cerr
		}
	}
	return err
}

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
// waits for the WAL commit per the fsync policy. Read path: memtable →
// frozen memtable → SSTables newest-first; the first hit is the newest
// record because Apply only ever admits strictly newer sequence numbers.
// Deletes are tombstone versions that flow through this pipeline — and
// through replication, handoff and anti-entropy — like any other write.
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
	// TombstoneGCAge, when > 0, lets compaction drop a tombstone once it is
	// older than this many simulated-time units AND is the newest record for
	// its key in the merged snapshot. The default 0 keeps tombstones forever:
	// dropping one while any replica still holds an older live version would
	// let anti-entropy resurrect the delete.
	TombstoneGCAge float64
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
}

// Engine is the durable kvstore.Engine. Safe for concurrent use; the
// internal lock is never held across an fsync (group commit handles
// durability waits) or a flush/compaction's file I/O.
type Engine struct {
	opts Options

	mu         sync.Mutex
	wal        *wal
	mem        *memtable
	frozen     *memtable // being flushed; immutable
	frozenWAL  []string  // rotated-out WAL segments, deletable after a successful flush
	tables     []*sstable
	gen        uint64  // last allocated file generation
	lastNow    float64 // most recent Apply timestamp (drives tombstone GC age)
	flushing   bool
	compacting bool
	closed     bool
	// bg tracks the background flush and compaction goroutines; Close
	// waits for them, so no file is written or removed after it returns.
	bg sync.WaitGroup

	applied, ignored, overread int64
	recovered                  int64
	flushes, flushErrs         int64
	compactions                int64
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
	e := &Engine{opts: opts, mem: newMemtable()}
	if err := e.recover(); err != nil {
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
		return tableEntry{seq: v.Seq, tombstone: v.Tombstone, writtenAt: v.WrittenAt, clock: v.Clock}, true
	}
	if e.frozen != nil {
		if v, ok := e.frozen.get(key); ok {
			return tableEntry{seq: v.Seq, tombstone: v.Tombstone, writtenAt: v.WrittenAt, clock: v.Clock}, true
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
	if now > e.lastNow {
		e.lastNow = now
	}
	cur, ok := e.lookupMetaLocked(v.Key)
	if ok && v.Seq <= cur.seq {
		e.ignored++
		e.mu.Unlock()
		return false
	}
	v.WrittenAt = now
	if ok && cur.clock != nil {
		v.Clock = v.Clock.Merge(cur.clock)
	}
	tok := e.wal.stage(encodeRecord(v))
	e.mem.put(v)
	e.applied++
	e.maybeFlushLocked()
	wal := e.wal
	e.mu.Unlock()
	// Durability wait happens outside e.mu: this is what lets a batch of
	// concurrent Apply calls ride one fsync.
	wal.commit(tok)
	return true
}

// Get returns the newest record for key (live or tombstone).
func (e *Engine) Get(key string) (kvstore.Version, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v, ok := e.mem.get(key); ok {
		return v, true
	}
	if e.frozen != nil {
		if v, ok := e.frozen.get(key); ok {
			return v, true
		}
	}
	for i := len(e.tables) - 1; i >= 0; i-- {
		if ent, ok := e.tables[i].index[key]; ok {
			v, err := e.tables[i].read(key, ent)
			if err != nil {
				// Treat a damaged table record as absent rather than wedging
				// reads; anti-entropy will re-fetch it from a peer.
				return kvstore.Version{Key: key}, false
			}
			return v, true
		}
	}
	e.overread++
	return kvstore.Version{Key: key}, false
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
// read from disk as visited, so memory stays bounded by the key set.
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
			if v, err = t.read(key, t.index[key]); err != nil {
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
		Recovered:   e.recovered,
		Flushes:     e.flushes,
		FlushErrs:   e.flushErrs,
		Compactions: e.compactions,
		SSTables:    len(e.tables),
		WALAppends:  appends,
		WALSyncs:    syncs,
		WALErrs:     walErrs,
	}
}

// Close waits for a running flush or compaction to finish, flushes the WAL
// (memtable contents replay from it on next open) and releases file
// handles, so the directory can be reopened as soon as Close returns. The
// engine rejects writes afterwards.
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

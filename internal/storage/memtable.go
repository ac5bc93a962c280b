package storage

import "pbs/internal/kvstore"

// memtable is the mutable in-memory tier: the newest version per key among
// records staged to the current (or, when frozen, the previous) WAL
// segment. A frozen memtable is immutable — the flusher reads it without
// the engine lock, which is safe because nothing writes to it anymore.
type memtable struct {
	data  map[string]kvstore.Version
	bytes int64
}

func newMemtable() *memtable {
	return &memtable{data: make(map[string]kvstore.Version)}
}

// memEntryOverhead approximates per-entry bookkeeping (map cell + struct)
// so the flush threshold tracks real memory, not just payload bytes.
const memEntryOverhead = 64

func versionBytes(v kvstore.Version) int64 {
	return int64(len(v.Key)+len(v.Value)) + memEntryOverhead
}

// put installs v unconditionally; the engine has already checked newness
// against the merged view.
func (m *memtable) put(v kvstore.Version) {
	if old, ok := m.data[v.Key]; ok {
		m.bytes -= versionBytes(old)
	}
	m.data[v.Key] = v
	m.bytes += versionBytes(v)
}

// putNewer installs v only if it is newer than the table's current record —
// used when folding a failed flush back into the live memtable.
func (m *memtable) putNewer(v kvstore.Version) {
	if old, ok := m.data[v.Key]; ok && v.Seq <= old.Seq {
		return
	}
	m.put(v)
}

func (m *memtable) get(key string) (kvstore.Version, bool) {
	v, ok := m.data[key]
	return v, ok
}

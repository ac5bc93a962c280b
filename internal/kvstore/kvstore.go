// Package kvstore is the per-replica versioned storage engine of the
// Dynamo-style store. Each key holds its newest known version. Versions are
// totally ordered by sequence number alone: the paper assumes either
// globally coordinated ordering or vector clocks with commutative merges,
// and this store takes the first — the coordinator assigns Seq from a
// per-key counter tagged with its failover epoch, so no causal metadata is
// kept. The store additionally tracks arrival timestamps so staleness
// experiments can reconstruct when a replica learned of a version.
package kvstore

// Version is one value version for a key.
type Version struct {
	Key string
	// Seq is the total-order version number (larger is newer). Seq 0 is
	// the key's initial, universally known state.
	Seq uint64
	// Value is the application payload.
	Value string
	// WrittenAt is the simulated time at which this replica applied the
	// version (set by the store on Apply).
	WrittenAt float64
	// Tombstone marks a replicated delete: the version participates in
	// ordering, replication, hinted handoff and anti-entropy exactly like a
	// live write — which is what prevents a stale replica from resurrecting
	// the key — but reads treat the key as absent.
	Tombstone bool
}

// Newer reports whether v is newer than o under the total order.
func (v Version) Newer(o Version) bool { return v.Seq > o.Seq }

// Engine is the per-replica storage surface the server's node layer runs
// on. Two implementations exist: the in-memory Store (wrapped in Synced
// for concurrent callers) and internal/storage.Engine, the durable
// WAL + memtable + SSTable engine. Implementations used by a live node
// must be safe for concurrent use — the node's coordinator fan-out calls
// Apply and Get from many goroutines, and a durable engine must be free
// to release its locks while waiting on a group fsync.
//
// Range holds the engine's internal lock for the duration of the scan;
// callbacks must not call back into the engine.
type Engine interface {
	// Apply installs v if it is newer than the locally known version for
	// the key (idempotent, commutative last-writer-wins), returning whether
	// local state changed. A durable engine does not return until v is
	// persisted per its fsync policy.
	Apply(v Version, now float64) bool
	// ApplyBatch applies vers in order as Apply would, setting applied[i]
	// (len(applied) >= len(vers)) to whether vers[i] changed local state.
	// A durable engine makes the whole batch durable with one commit wait.
	ApplyBatch(vers []Version, now float64, applied []bool)
	// Get returns the current version for the key. The boolean reports
	// whether any record (live or tombstone) exists; callers that care
	// about visibility must additionally check Version.Tombstone.
	Get(key string) (Version, bool)
	// GetBytes is Get for a key held as bytes — a frame being decoded. The
	// lookup does not copy the key; on a miss the zero Version is returned,
	// Key included.
	GetBytes(key []byte) (Version, bool)
	// Seq returns the current sequence number for the key (0 when the key
	// is unknown).
	Seq(key string) uint64
	// Len returns the number of keys with records (tombstones included).
	Len() int
	// Summary returns the key→seq map used to build Merkle content
	// summaries. Tombstones are included: a delete must diff and replicate
	// like any other version.
	Summary() map[string]uint64
	// Range calls f for every stored version, in unspecified order.
	Range(f func(Version))
	// Versions returns a copy of the full state.
	Versions() []Version
	// Stats reports applied/ignored counters.
	Stats() (applied, ignored int64)

	// StoreHint buffers v as a pending hinted-handoff write for target
	// (Hints.Store). A durable engine persists the hint per its fsync
	// policy before returning.
	StoreHint(target int, v Version)
	// ApplyHinted is a sloppy-quorum spare's write: StoreHint, then Apply.
	// A durable engine makes both durable together (one group commit) —
	// the hint even when the apply is ignored as not newer.
	ApplyHinted(target int, v Version, now float64) bool
	// ClearHint removes target's hint for v.Key once v was delivered,
	// unless a newer hint arrived meanwhile (Hints.Clear).
	ClearHint(target int, v Version)
	// DropHintTarget discards every hint for a target that left the
	// cluster (Hints.DropTarget).
	DropHintTarget(target int)
	// Hints returns a copy of the pending hint set.
	Hints() map[int]map[string]Version
	// HintStats reports the hinted-handoff counters.
	HintStats() HintStats
}

// Store is a single replica's key-value state. It is not safe for
// concurrent use; the discrete-event simulator is single-threaded by
// design.
type Store struct {
	data map[string]Version

	applied  int64 // versions accepted (newer than local state)
	ignored  int64 // versions ignored as stale duplicates
	overread int64 // reads of missing keys
}

// New returns an empty store.
func New() *Store {
	return &Store{data: make(map[string]Version)}
}

// Apply installs v if it is newer than the locally known version for the
// key, returning whether local state changed. Older or duplicate versions
// are ignored — the idempotent, commutative convergence rule that makes
// anti-entropy safe to repeat.
func (s *Store) Apply(v Version, now float64) bool {
	cur, ok := s.data[v.Key]
	if ok && !v.Newer(cur) {
		s.ignored++
		return false
	}
	v.WrittenAt = now
	s.data[v.Key] = v
	s.applied++
	return true
}

// Get returns the replica's current version for the key. Missing keys
// return the zero Version (Seq 0, the initial state) and false.
func (s *Store) Get(key string) (Version, bool) {
	v, ok := s.data[key]
	if !ok {
		s.overread++
		return Version{Key: key}, false
	}
	return v, true
}

// GetBytes is Get for a key held as bytes: the map lookup does not copy
// the key, and a miss returns the zero Version.
func (s *Store) GetBytes(key []byte) (Version, bool) {
	v, ok := s.data[string(key)]
	if !ok {
		s.overread++
	}
	return v, ok
}

// Seq returns the replica's current sequence number for the key (0 when
// the key is unknown).
func (s *Store) Seq(key string) uint64 {
	v, _ := s.Get(key)
	return v.Seq
}

// Len returns the number of keys stored.
func (s *Store) Len() int { return len(s.data) }

// Summary returns the key→seq map used to build Merkle content summaries.
func (s *Store) Summary() map[string]uint64 {
	out := make(map[string]uint64, len(s.data))
	for k, v := range s.data {
		out[k] = v.Seq
	}
	return out
}

// Range calls f for every stored version, in map order — an allocation-free
// scan for callers (anti-entropy bucket serving) that would otherwise copy
// the whole store per request.
func (s *Store) Range(f func(Version)) {
	for _, v := range s.data {
		f(v)
	}
}

// Versions returns a copy of the full state (for anti-entropy exchange and
// test assertions).
func (s *Store) Versions() []Version {
	out := make([]Version, 0, len(s.data))
	for _, v := range s.data {
		out = append(out, v)
	}
	return out
}

// Stats reports applied/ignored counters.
func (s *Store) Stats() (applied, ignored int64) { return s.applied, s.ignored }

package kvstore

import "sync"

// Synced wraps a Store with a mutex, making it a concurrency-safe Engine —
// the in-memory (non-durable) engine a live server node runs on when no
// data directory is configured. The lock discipline mirrors what the node
// layer used to do with its own storeMu, moved behind the Engine seam so
// durable engines can manage their own locking (and release it while
// waiting on a group fsync). The pending hint set lives in memory under a
// lock of its own, so hint bookkeeping never contends with the data path.
type Synced struct {
	mu sync.Mutex
	s  *Store

	hmu   sync.Mutex
	hints *Hints
}

// NewSynced returns an empty concurrency-safe store.
func NewSynced() *Synced { return &Synced{s: New(), hints: NewHints()} }

// Apply installs v if newer (see Store.Apply).
func (s *Synced) Apply(v Version, now float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.Apply(v, now)
}

// ApplyBatch applies vers in order under one lock hold (see Engine).
func (s *Synced) ApplyBatch(vers []Version, now float64, applied []bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, v := range vers {
		applied[i] = s.s.Apply(v, now)
	}
}

// Get returns the current version for the key (see Store.Get).
func (s *Synced) Get(key string) (Version, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.Get(key)
}

// GetBytes is Get for a key held as bytes (see Store.GetBytes).
func (s *Synced) GetBytes(key []byte) (Version, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.GetBytes(key)
}

// Seq returns the current sequence number for the key.
func (s *Synced) Seq(key string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.Seq(key)
}

// Len returns the number of keys stored.
func (s *Synced) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.Len()
}

// Summary returns the key→seq map (see Store.Summary).
func (s *Synced) Summary() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.Summary()
}

// Range calls f for every stored version while holding the lock; f must
// not call back into the store.
func (s *Synced) Range(f func(Version)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.s.Range(f)
}

// Versions returns a copy of the full state.
func (s *Synced) Versions() []Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.Versions()
}

// Stats reports applied/ignored counters.
func (s *Synced) Stats() (applied, ignored int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s.Stats()
}

// StoreHint buffers a hint for target (see Hints.Store).
func (s *Synced) StoreHint(target int, v Version) {
	s.hmu.Lock()
	defer s.hmu.Unlock()
	s.hints.Store(target, v)
}

// ApplyHinted buffers a hint for target, then applies v.
func (s *Synced) ApplyHinted(target int, v Version, now float64) bool {
	s.StoreHint(target, v)
	return s.Apply(v, now)
}

// ClearHint removes a delivered hint (see Hints.Clear).
func (s *Synced) ClearHint(target int, v Version) {
	s.hmu.Lock()
	defer s.hmu.Unlock()
	s.hints.Clear(target, v)
}

// DropHintTarget discards a departed target's hints.
func (s *Synced) DropHintTarget(target int) {
	s.hmu.Lock()
	defer s.hmu.Unlock()
	s.hints.DropTarget(target)
}

// Hints returns a copy of the pending hint set.
func (s *Synced) Hints() map[int]map[string]Version {
	s.hmu.Lock()
	defer s.hmu.Unlock()
	return s.hints.Snapshot()
}

// HintStats reports the hint counters.
func (s *Synced) HintStats() HintStats {
	s.hmu.Lock()
	defer s.hmu.Unlock()
	return s.hints.Stats()
}

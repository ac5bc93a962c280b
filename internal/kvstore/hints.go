package kvstore

// Hinted handoff's pending set (Dynamo Section 4.6). When a write leg to a
// replica fails — or lands on a sloppy-quorum spare instead — the node
// keeps the version as a hint and a background replayer redelivers it once
// the replica is reachable. Hints are keyed by (target replica, key) and
// keep only the newest version per key: the apply rule is idempotent and
// last-writer-wins, so delivering the newest version subsumes every older
// missed write for that key.
//
// Hints is the one implementation of that fold. Engines hold it behind
// their own lock: the in-memory Synced keeps it in memory only, while
// internal/storage.Engine additionally logs every change to its WAL and
// replays the log through the same fold on open.

// MaxHints bounds one node's pending hints across all targets; a new hint
// beyond the cap is dropped (and counted).
const MaxHints = 1 << 16

// HintStats is a snapshot of a node's hinted-handoff counters.
type HintStats struct {
	// Pending is the number of hints buffered now.
	Pending int
	// Stored counts distinct (target, key) hints buffered. A newer version
	// superseding a pending hint is not new work to deliver, and counting
	// it would break the delivery invariant
	// replayed + anti-entropy pulls >= stored.
	Stored int64
	// Replayed counts hints cleared after delivery.
	Replayed int64
	// Dropped counts hints refused at MaxHints or discarded with a target
	// that left the cluster.
	Dropped int64
	// Restored counts hints recovered from disk when the engine opened.
	Restored int64
}

// Hints is the pending hint set: target → key → newest missed version. It
// is not safe for concurrent use.
type Hints struct {
	byTarget map[int]map[string]Version
	stats    HintStats
}

// NewHints returns an empty hint set.
func NewHints() *Hints {
	return &Hints{byTarget: make(map[int]map[string]Version)}
}

// Store buffers v for target unless an equal-or-newer hint for the key is
// already pending or the set is full. It reports whether the set changed.
func (h *Hints) Store(target int, v Version) bool {
	kh := h.byTarget[target]
	cur, ok := kh[v.Key]
	if ok && !v.Newer(cur) {
		return false
	}
	if !ok {
		if h.stats.Pending >= MaxHints {
			h.stats.Dropped++
			return false
		}
		h.stats.Pending++
		h.stats.Stored++
	}
	if kh == nil {
		kh = make(map[string]Version)
		h.byTarget[target] = kh
	}
	kh[v.Key] = v
	return true
}

// Clear removes target's hint for v.Key once v was delivered, unless a
// newer hint for the key arrived meanwhile. It reports whether the set
// changed.
func (h *Hints) Clear(target int, v Version) bool {
	kh := h.byTarget[target]
	cur, ok := kh[v.Key]
	if !ok || cur.Newer(v) {
		return false
	}
	delete(kh, v.Key)
	if len(kh) == 0 {
		delete(h.byTarget, target)
	}
	h.stats.Pending--
	h.stats.Replayed++
	return true
}

// DropTarget discards every hint for a target that left the cluster (its
// ranges were drained to the new owners), counting them as dropped, and
// returns the discarded versions.
func (h *Hints) DropTarget(target int) []Version {
	kh := h.byTarget[target]
	if len(kh) == 0 {
		return nil
	}
	out := make([]Version, 0, len(kh))
	for _, v := range kh {
		out = append(out, v)
	}
	delete(h.byTarget, target)
	h.stats.Pending -= len(out)
	h.stats.Dropped += int64(len(out))
	return out
}

// Range calls f for every pending hint, in unspecified order.
func (h *Hints) Range(f func(target int, v Version)) {
	for target, kh := range h.byTarget {
		for _, v := range kh {
			f(target, v)
		}
	}
}

// Snapshot returns a copy of the pending set.
func (h *Hints) Snapshot() map[int]map[string]Version {
	out := make(map[int]map[string]Version, len(h.byTarget))
	for target, kh := range h.byTarget {
		cp := make(map[string]Version, len(kh))
		for k, v := range kh {
			cp[k] = v
		}
		out[target] = cp
	}
	return out
}

// Stats returns the counters.
func (h *Hints) Stats() HintStats { return h.stats }

// MarkRestored restarts the counters for a set just recovered from disk:
// every pending hint counts as stored and restored, nothing as replayed or
// dropped.
func (h *Hints) MarkRestored() {
	n := int64(h.stats.Pending)
	h.stats = HintStats{Pending: h.stats.Pending, Stored: n, Restored: n}
}

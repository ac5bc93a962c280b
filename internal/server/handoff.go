package server

// Hinted handoff (Dynamo Section 4.6, paper Section 2.1's "anti-entropy"
// companion): when a coordinator's write fan-out to a replica fails, the
// coordinator buffers the version as a hint and a background replayer
// redelivers it once the replica is reachable again. Hints are keyed by
// (target replica, key) and keep only the newest version per key — the
// store's apply rule is idempotent and last-writer-wins, so replaying the
// newest version subsumes every older missed write for that key.

import (
	"sync"
	"time"

	"pbs/internal/kvstore"
)

const (
	// defaultHandoffInterval paces replay attempts.
	defaultHandoffInterval = 250 * time.Millisecond
	// maxHintsPerNode bounds one coordinator's hint memory across all
	// targets; new hints beyond the cap are dropped (and counted).
	maxHintsPerNode = 1 << 16
)

// handoff is one coordinator's hint buffer plus replay bookkeeping. When
// a hint log is attached (Params.HintDir), every buffer mutation is also
// appended to the log, and the buffer is preloaded from the log on start.
type handoff struct {
	mu      sync.Mutex
	hints   map[int]map[string]kvstore.Version // target -> key -> newest missed version
	pending int
	log     *hintLog // nil: in-memory only

	stored, replayed, dropped int64
	restored                  int64 // hints reloaded from the log at start
	truncated                 int64 // 1 when the log replay stopped at a torn/unknown record
}

func newHandoff() *handoff {
	return &handoff{hints: make(map[int]map[string]kvstore.Version)}
}

// newDurableHandoff opens (replaying and compacting) the hint log at path
// under the given fsync policy and returns a handoff buffer preloaded with
// every hint that was pending when the previous process stopped.
func newDurableHandoff(path, fsyncPolicy string) (*handoff, error) {
	log, pending, truncated, err := openHintLog(path, fsyncPolicy)
	if err != nil {
		return nil, err
	}
	h := &handoff{hints: pending, log: log}
	for _, kh := range pending {
		h.pending += len(kh)
	}
	h.restored = int64(h.pending)
	h.stored = h.restored
	if truncated {
		// The replay stopped before the end of the log (torn tail after a
		// crash, or records from a future version). The clean prefix above
		// is intact and replayed; the discarded suffix is surfaced as a
		// counter so operators see it in /stats instead of nothing.
		h.truncated = 1
	}
	return h, nil
}

// store buffers a missed write for later redelivery to target.
func (h *handoff) store(target int, v kvstore.Version) {
	h.mu.Lock()
	defer h.mu.Unlock()
	kh := h.hints[target]
	if kh == nil {
		kh = make(map[string]kvstore.Version)
		h.hints[target] = kh
	}
	cur, ok := kh[v.Key]
	if ok && !v.Newer(cur) {
		return // an equal-or-newer hint is already buffered
	}
	if !ok {
		if h.pending >= maxHintsPerNode {
			h.dropped++
			return
		}
		h.pending++
		// stored counts distinct buffered (target, key) hints — a newer
		// version superseding a buffered hint is not new work to deliver,
		// and counting it would break the delivery invariant
		// replayed + anti-entropy pulls >= stored.
		h.stored++
	}
	kh[v.Key] = v
	h.log.append(hintRecStore, target, v)
}

// snapshot returns the targets with pending hints and a copy of each
// target's hint set.
func (h *handoff) snapshot() map[int]map[string]kvstore.Version {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[int]map[string]kvstore.Version, len(h.hints))
	for target, kh := range h.hints {
		if len(kh) == 0 {
			continue
		}
		cp := make(map[string]kvstore.Version, len(kh))
		for k, v := range kh {
			cp[k] = v
		}
		out[target] = cp
	}
	return out
}

// clear removes a delivered hint, unless a newer hint for the key arrived
// while the replay was in flight.
func (h *handoff) clear(target int, v kvstore.Version) {
	h.mu.Lock()
	defer h.mu.Unlock()
	kh := h.hints[target]
	cur, ok := kh[v.Key]
	if !ok || cur.Newer(v) {
		return
	}
	delete(kh, v.Key)
	h.pending--
	h.replayed++
	h.log.append(hintRecClear, target, v)
}

// dropTarget discards every pending hint for a target that left the
// cluster (its ranges were drained to the new owners), counting them as
// dropped.
func (h *handoff) dropTarget(target int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	kh := h.hints[target]
	if len(kh) == 0 {
		return
	}
	for _, v := range kh {
		h.pending--
		h.dropped++
		h.log.append(hintRecClear, target, v)
	}
	delete(h.hints, target)
}

// stats returns the handoff counters.
func (h *handoff) stats() (pending int, stored, replayed, dropped int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.pending, h.stored, h.replayed, h.dropped
}

// restoredCount returns how many hints were reloaded from the log at start.
func (h *handoff) restoredCount() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.restored
}

// truncatedCount reports whether (1) the start-time log replay stopped at a
// torn or unknown record instead of a clean end-of-log.
func (h *handoff) truncatedCount() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.truncated
}

// closeLog flushes and closes the hint log, if one is attached.
func (h *handoff) closeLog() {
	h.log.close()
}

// runHandoff is the background replayer: every interval it attempts to
// redeliver each target's pending hints, stopping a target's round at the
// first failure (the replica is likely still unreachable). Targets replay
// concurrently, at most one replay in flight per target — an RPC stalled
// on one target (e.g. a paused replica) must not head-of-line block
// delivery to the others.
func (n *Node) runHandoff(interval time.Duration) {
	if interval <= 0 {
		interval = defaultHandoffInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	var mu sync.Mutex
	inFlight := make(map[int]bool)
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		if n.faults.Down(n.id) {
			continue // a crashed coordinator replays nothing
		}
		view := n.view()
		for target, kh := range n.handoff.snapshot() {
			peer, member := view.peers[target]
			if !member {
				// The target left the ring: its ranges were drained to new
				// owners, so these hints have nowhere useful to go.
				n.handoff.dropTarget(target)
				continue
			}
			mu.Lock()
			busy := inFlight[target]
			if !busy {
				inFlight[target] = true
			}
			mu.Unlock()
			if busy {
				continue // previous replay to this target still running
			}
			go func(target int, p Peer, kh map[string]kvstore.Version) {
				defer func() {
					mu.Lock()
					delete(inFlight, target)
					mu.Unlock()
				}()
				for _, v := range kh {
					// Re-check the crash state per hint, not just per round:
					// a replay goroutine launched while this coordinator was
					// healthy must fall silent the instant the fault
					// controller crashes it, matching the client and RPC
					// paths — otherwise an in-flight round keeps leaking
					// deliveries out of a supposedly dead node.
					if n.faults.Down(n.id) {
						return
					}
					if _, _, err := p.Apply(v); err != nil {
						return // target still unreachable; retry next round
					}
					n.handoff.clear(target, v)
				}
			}(target, peer, kh)
		}
	}
}

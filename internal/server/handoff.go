package server

// Hinted handoff (Dynamo Section 4.6, paper Section 2.1's "anti-entropy"
// companion): when a coordinator's write fan-out to a replica fails, the
// coordinator buffers the version as a hint and a background replayer
// redelivers it once the replica is reachable again. The pending set —
// newest version per (target replica, key) — lives in the node's storage
// engine (kvstore.Hints), so it is exactly as durable as the node's data:
// logged to the engine's WAL under -data-dir, in memory otherwise.

import (
	"sync"
	"time"

	"pbs/internal/kvstore"
)

// defaultHandoffInterval paces replay attempts.
const defaultHandoffInterval = 250 * time.Millisecond

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
		for target, kh := range n.store.Hints() {
			peer, member := view.peers[target]
			if !member {
				// The target left the ring: its ranges were drained to new
				// owners, so these hints have nowhere useful to go.
				n.store.DropHintTarget(target)
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
					if err := applyOne(p, v); err != nil {
						return // target still unreachable; retry next round
					}
					n.store.ClearHint(target, v)
				}
			}(target, peer, kh)
		}
	}
}

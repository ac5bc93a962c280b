package server

// Background Merkle anti-entropy (Dynamo Section 4.7, paper Section 4.2:
// "Dynamo used Merkle trees to summarize and exchange data contents
// between replicas"). Every interval each node picks a partner round-robin,
// fetches the partner's Merkle content summary over the internal
// transport, diffs it against its own, and reconciles only the divergent
// buckets: newer remote versions are pulled and applied locally, newer
// local versions are pushed with ordinary apply RPCs. The exchange is
// symmetric per pair and idempotent, so repeated rounds converge replicas
// that diverged through crashes, dropped RPCs, or lost hints — the repair
// of last resort beneath hinted handoff.

import (
	"sync"
	"time"

	"pbs/internal/kvstore"
	"pbs/internal/merkle"
)

const (
	// defaultAntiEntropyInterval paces exchange rounds.
	defaultAntiEntropyInterval = time.Second
	// merkleDepth is the summary-tree depth (2^depth buckets).
	merkleDepth = 10
	// maxMerkleDepth bounds the depth a replica will serve over RPC.
	maxMerkleDepth = 16
	// maxBucketsPerRound bounds one round's reconciliation work so a badly
	// diverged pair streams repair instead of stalling in one giant round.
	maxBucketsPerRound = 256
	// maxVersionsPerExchange and maxBytesPerExchange cap one bucket-fetch
	// response by count and by encoded size (values can be up to 1 MiB, and
	// a response must stay well under the transport's maxFrame). Truncation
	// is safe: applies are idempotent and the next round's tree diff finds
	// whatever is still missing.
	maxVersionsPerExchange = 8192
	maxBytesPerExchange    = 4 << 20
)

// aeStats counts anti-entropy work on one node.
type aeStats struct {
	mu      sync.Mutex
	rounds  int64 // completed exchange rounds
	failed  int64 // rounds abandoned on RPC failure
	buckets int64 // divergent buckets reconciled
	pulled  int64 // remote versions applied locally
	pushed  int64 // local versions delivered to the partner
}

func (s *aeStats) snapshot() (rounds, failed, buckets, pulled, pushed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds, s.failed, s.buckets, s.pulled, s.pushed
}

// localSummary snapshots this replica's key→seq map. Tombstones are
// included by every engine — a delete must diff and replicate like any
// other version, or a stale replica would resurrect the key.
func (n *Node) localSummary() map[string]uint64 {
	return n.store.Summary()
}

// localTree builds this replica's Merkle content summary.
func (n *Node) localTree(depth int) *merkle.Tree {
	return merkle.Build(n.localSummary(), depth)
}

// localBucketVersions returns the versions this replica stores across the
// given Merkle buckets — one allocation-free scan of the store, capped at
// maxVersionsPerExchange.
func (n *Node) localBucketVersions(depth int, buckets []int) []kvstore.Version {
	wanted := make(map[int]bool, len(buckets))
	for _, b := range buckets {
		wanted[b] = true
	}
	var out []kvstore.Version
	bytes := 0
	n.store.Range(func(v kvstore.Version) {
		if len(out) >= maxVersionsPerExchange || bytes >= maxBytesPerExchange {
			return
		}
		if wanted[merkle.Bucket(v.Key, depth)] {
			out = append(out, v)
			bytes += len(v.Key) + len(v.Value) + 32 // approximate encoded size
		}
	})
	return out
}

// exchangeWith runs one anti-entropy round against partner, reconciling at
// most maxBucketsPerRound divergent buckets in both directions: one tree
// fetch, one batched bucket fetch, then pushes for whatever the partner is
// behind on.
func (n *Node) exchangeWith(v *memView, partner int) error {
	remoteNodes, err := v.peers[partner].MerkleNodes(merkleDepth)
	if err != nil {
		return err
	}
	remote, err := merkle.FromNodes(merkleDepth, remoteNodes)
	if err != nil {
		return err
	}
	summary := n.localSummary()
	local := merkle.Build(summary, merkleDepth)
	buckets, _ := merkle.Diff(local, remote)
	if len(buckets) == 0 {
		return nil
	}
	if len(buckets) > maxBucketsPerRound {
		buckets = buckets[:maxBucketsPerRound]
	}

	remoteVers, err := v.peers[partner].BucketVersions(merkleDepth, buckets)
	if err != nil {
		return err
	}
	pulled := 0
	remoteSeq := make(map[string]uint64, len(remoteVers))
	for _, v := range remoteVers {
		remoteSeq[v.Key] = v.Seq
		if n.applyLocal(v) {
			pulled++
		}
	}
	// Record the pull side now: a failed push below must not erase the
	// repair work that already happened.
	n.ae.mu.Lock()
	n.ae.buckets += int64(len(buckets))
	n.ae.pulled += int64(pulled)
	n.ae.mu.Unlock()

	// Push local versions the partner is missing or behind on. One pass
	// over the same summary snapshot the diff used, so push decisions and
	// tree state agree. (A truncated remote response can make a push
	// redundant, never wrong: applies are idempotent.)
	wanted := make(map[int]bool, len(buckets))
	for _, b := range buckets {
		wanted[b] = true
	}
	for k, seq := range summary {
		if !wanted[merkle.Bucket(k, merkleDepth)] || seq <= remoteSeq[k] {
			continue
		}
		lv, ok := n.getLocal(k)
		if !ok || lv.Seq <= remoteSeq[k] {
			continue
		}
		if err := applyOne(v.peers[partner], lv); err != nil {
			return err
		}
		n.ae.mu.Lock()
		n.ae.pushed++
		n.ae.mu.Unlock()
	}
	return nil
}

// nextPartner picks the next anti-entropy partner in ID order after prev,
// wrapping around the current member set and skipping self. Returns -1
// when there is no other member.
func nextPartner(v *memView, self, prev int) int {
	ids := v.m.IDs()
	if len(ids) < 2 {
		return -1
	}
	// First ID strictly above prev, wrapping; skip self.
	for pass := 0; pass < 2; pass++ {
		for _, id := range ids {
			if id > prev && id != self {
				return id
			}
		}
		prev = -1 // wrap
	}
	return -1
}

// runAntiEntropy is the background exchange loop: every interval, one round
// against the next member in round-robin ID order under the current view.
func (n *Node) runAntiEntropy(interval time.Duration) {
	if interval <= 0 {
		interval = defaultAntiEntropyInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	partner := n.id
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		v := n.view()
		if v == nil || n.faults.Down(n.id) {
			continue
		}
		partner = nextPartner(v, n.id, partner)
		if partner < 0 {
			partner = n.id
			continue
		}
		n.ae.mu.Lock()
		n.ae.rounds++
		n.ae.mu.Unlock()
		if err := n.exchangeWith(v, partner); err != nil {
			n.ae.mu.Lock()
			n.ae.failed++
			n.ae.mu.Unlock()
		}
	}
}

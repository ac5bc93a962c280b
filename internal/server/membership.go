package server

// The node-side membership snapshot. Every layer that used to hold a fixed
// *ring.Ring and a fixed addrs/peers slice now routes through an atomic
// *memView: one pointer load per operation buys a consistent (membership,
// peers) pair for the whole operation, and a membership change (join,
// leave) swaps the snapshot wholesale — operations already in flight finish
// under the view they loaded at admission, exactly like live quorum
// retuning.
//
// Ring epochs are totally ordered: installMembership adopts strictly higher
// epochs and rejects everything else, so replayed or reordered membership
// pushes cannot roll a node's view backward. On top of the ordering, each
// epoch's membership digest is pinned the first time the node learns it —
// from the config log's decision (ringlog.go) or a first install — and any
// later install claiming the same epoch with different contents is rejected
// and counted (ConfigRejects): two conflicting same-epoch views can never
// both take effect on one node. (Per-key *seq* epochs — the failover
// fencing in the version numbers — are unrelated; see nextSeq.)

import (
	"hash/fnv"
	"log"
	"sort"

	"pbs/internal/ring"
)

// memView is one immutable snapshot of the cluster as seen from a node:
// the versioned membership plus a ready-to-use RPC client per member.
type memView struct {
	m *ring.Membership
	// peers maps member ID to its fault-wrapped internal RPC client (self
	// included — a coordinator fans out to itself over the transport too).
	peers map[int]Peer
}

// view returns the node's current membership snapshot (nil only before the
// first install — detached test nodes).
func (n *Node) view() *memView {
	return n.mem.Load()
}

// replication returns the effective replication factor under view v: the
// live-tunable target N clamped to the member count, so an elastic cluster
// smaller than its target (a seed node awaiting joiners, a shrunken ring)
// keeps serving with the replicas it has.
func (n *Node) replication(v *memView) int {
	nr := int(n.nrep.Load())
	if sz := v.m.Size(); nr > sz {
		nr = sz
	}
	if nr < 1 {
		nr = 1
	}
	return nr
}

// prefs returns key's preference list under view v at the effective
// replication factor.
func (n *Node) prefs(v *memView, key string) []int {
	return v.m.PreferenceList(key, n.replication(v))
}

// httpAddr returns a member's public base URL under view v ("" when the
// member is unknown).
func (v *memView) httpAddr(id int) string {
	mem, ok := v.m.Member(id)
	if !ok {
		return ""
	}
	return mem.HTTPAddr
}

// mkPeer builds the fault-wrapped RPC client for one member as seen from
// this node.
func (n *Node) mkPeer(to int, internalAddr string) Peer {
	return &faultPeer{f: n.faults, from: n.id, to: to, next: newPeer(internalAddr)}
}

// closePeer tears down one member's pooled connections.
func closePeer(p Peer) {
	if fp, ok := p.(*faultPeer); ok {
		fp.next.(*peer).close()
	}
}

// membershipDigest is the content fingerprint pinned per ring epoch
// (cfgDigests): the FNV-64a of the canonical membership encoding, which is
// deterministic (members are sorted by ID).
func membershipDigest(m *ring.Membership) uint64 {
	h := fnv.New64a()
	h.Write(ring.EncodeMembership(m))
	return h.Sum64()
}

// installMembership adopts m if it is strictly newer than the node's
// current view — and consistent with whatever configuration this node has
// already pinned at m's epoch — rebuilding the peer map: clients for
// surviving members are reused (their pooled connections stay warm),
// clients for new members are dialed lazily, and clients for departed
// members are closed. Returns whether the view changed.
func (n *Node) installMembership(m *ring.Membership) bool {
	d := membershipDigest(m)
	n.memMu.Lock()
	if n.cfgDigests == nil {
		n.cfgDigests = make(map[uint64]uint64)
	}
	if pinned, ok := n.cfgDigests[m.Epoch()]; ok && pinned != d {
		n.memMu.Unlock()
		n.configRejects.Add(1)
		log.Printf("server: node %d: rejecting membership at epoch %d: conflicts with the configuration already pinned at that epoch", n.id, m.Epoch())
		return false
	}
	cur := n.mem.Load()
	if cur != nil && m.Epoch() <= cur.m.Epoch() {
		n.memMu.Unlock()
		return false
	}
	n.cfgDigests[m.Epoch()] = d
	peers := make(map[int]Peer, m.Size())
	var removed []Peer
	for _, mem := range m.Members() {
		if cur != nil {
			if p, ok := cur.peers[mem.ID]; ok {
				peers[mem.ID] = p
				continue
			}
		}
		peers[mem.ID] = n.mkPeer(mem.ID, mem.InternalAddr)
	}
	if cur != nil {
		for id, p := range cur.peers {
			if _, kept := peers[id]; !kept {
				removed = append(removed, p)
			}
		}
	}
	n.mem.Store(&memView{m: m, peers: peers})
	// A pending join assignment is settled once its member lands in the
	// ring (or becomes moot if superseded).
	for addr, id := range n.pendingJoins {
		if m.Contains(id) {
			delete(n.pendingJoins, addr)
		}
	}
	n.memMu.Unlock()
	for _, p := range removed {
		closePeer(p)
	}
	if n.gossip != nil {
		// Departed members' gossip entries go with their peers; their
		// heartbeats must not read as live cluster state.
		n.gossip.Retain(m.IDs())
	}
	n.ringFlips.Add(1)
	return true
}

// closePeers tears down every RPC client of the current view (node
// shutdown).
func (n *Node) closePeers() {
	v := n.view()
	if v == nil {
		return
	}
	for _, p := range v.peers {
		closePeer(p)
	}
}

// membersExcept returns the view's members without the given ID, sorted by
// ID.
func membersExcept(m *ring.Membership, id int) []ring.Member {
	out := make([]ring.Member, 0, m.Size())
	for _, mem := range m.Members() {
		if mem.ID != id {
			out = append(out, mem)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

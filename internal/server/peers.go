package server

// The Peer seam between coordinator logic (node.go) and the wire transport
// (transport.go). Coordinators never talk to a *peer (the TCP RPC client)
// directly: every node-to-node hop — write forwarding, write fan-out,
// replica reads, read repair, hinted-handoff replay, anti-entropy
// exchange, gossip and membership — goes through a Peer, and StartLocal
// interposes a fault layer (faults.go) between the coordinator and the
// transport. Behind the seam a peer holds connections of two roles to its
// replica: peer-role connections carry every method but ForwardWrite,
// forward-role connections carry ForwardWrite. A data leg has one shape
// per direction: Apply sends a list of versions and Get asks for a list of
// keys, whether the list holds one operation's key or one peer's share of
// a multi-key batch; only a sloppy-quorum spare write (ApplyHinted) carries
// one version on its own opcode. The peer a node builds for itself serves
// its own replica legs (Apply, ApplyHinted, Get and Ping) in process
// instead: still behind the fault layer, still encoded, served by
// handlePeerOp and decoded with the same codec, but without a socket round
// trip to itself; its control-plane methods keep the mux. The fault-free
// path adds one interface dispatch and a nil check per RPC, preserving the
// WARS measurement semantics the conformance suite pins.

import "pbs/internal/kvstore"

// Peer is one replica's internal RPC surface as seen from a coordinator.
type Peer interface {
	// Apply replicates vers (1 to maxBatchOps versions) to the peer in one
	// round trip, answering into acks, index-aligned (len(acks) >=
	// len(vers)): whether the peer's state changed, and the peer's
	// resulting seq for the key (>= the version's seq when the peer ignored
	// it as a stale duplicate — coordinators use the seq's epoch to detect
	// that they are assigning in a superseded epoch).
	Apply(vers []kvstore.Version, acks []applyAck) error
	// ApplyHinted replicates v to the peer as a sloppy-quorum spare write:
	// the peer installs it locally and buffers a hint naming the
	// preference-list replica (target) the write was intended for, to be
	// replayed by the peer's own handoff loop once the target recovers.
	// The answer is Apply's.
	ApplyHinted(v kvstore.Version, target int) (applyAck, error)
	// Ping is a lightweight liveness probe (one empty round trip).
	Ping() error
	// Get reads the peer's current versions for keys (1 to maxBatchOps) in
	// one round trip into out, index-aligned (len(out) >= len(keys)). Each
	// answer owns a pooled buffer — a one-key answer, the frame it arrived
	// in — and whoever holds the readResp releases it.
	Get(keys [][]byte, out []readResp) error
	// MerkleNodes returns the peer's Merkle content summary at the given
	// depth, in heap layout (merkle.Tree.Nodes).
	MerkleNodes(depth int) ([]uint64, error)
	// BucketVersions returns the versions the peer stores whose keys fall
	// in any of the given Merkle buckets at the given depth (one batched
	// scan on the peer; responses are size-capped, see
	// maxVersionsPerExchange).
	BucketVersions(depth int, buckets []int) ([]kvstore.Version, error)
	// ExchangeMembership pushes an encoded ring.Membership to the peer
	// (nil payload = pull only) and returns the peer's current membership
	// encoding — the gossip primitive behind ring flips.
	ExchangeMembership(push []byte) ([]byte, error)
	// Gossip pushes an encoded gossip message (sender's membership plus its
	// heartbeat/epoch table, internal/gossip wire format) and returns the
	// peer's own message — one exchange converges both sides.
	Gossip(push []byte) ([]byte, error)
	// ConfigRPC carries one ring-config consensus message (internal/configlog
	// wire format) to the peer's acceptor and returns its reply.
	ConfigRPC(payload []byte) ([]byte, error)
	// ForwardWrite hands a client write to the peer as its coordinator
	// (Section 4.2's proxying) on a forward-role connection, tagged with
	// the forwarder's ring epoch fwdEpoch. The peer's typed verdict comes back as a *ClientError;
	// any other error means the peer was not reached.
	ForwardWrite(key, value string, tombstone bool, fwdEpoch uint64) (PutResponse, error)
}

// faultPeer interposes a cluster-wide fault controller on the path from one
// coordinator (from) to one replica (to). A nil *Faults injects nothing.
type faultPeer struct {
	f        *Faults
	from, to int
	next     Peer
}

// applyOne replicates one version to p, dropping the answer: the legs that
// are not a quorum's (read repair, hint replay, anti-entropy push, the
// Leave drain) only need to know that it landed.
func applyOne(p Peer, v kvstore.Version) error {
	var ack [1]applyAck
	return p.Apply([]kvstore.Version{v}, ack[:])
}

func (fp *faultPeer) Apply(vers []kvstore.Version, acks []applyAck) error {
	if err := fp.f.allow(fp.from, fp.to); err != nil {
		return err
	}
	return fp.next.Apply(vers, acks)
}

func (fp *faultPeer) ApplyHinted(v kvstore.Version, target int) (applyAck, error) {
	if err := fp.f.allow(fp.from, fp.to); err != nil {
		return applyAck{}, err
	}
	return fp.next.ApplyHinted(v, target)
}

// Ping consults only the crash state: a paused replica is stalled, not
// dead, and a lossy link does not make its endpoint crash — failover and
// spare selection must keep treating both as live, so the probe bypasses
// the pause/drop/delay gates that ordinary RPCs go through.
func (fp *faultPeer) Ping() error {
	if err := fp.f.crashGate(fp.from, fp.to); err != nil {
		return err
	}
	return fp.next.Ping()
}

func (fp *faultPeer) ForwardWrite(key, value string, tombstone bool, fwdEpoch uint64) (PutResponse, error) {
	if err := fp.f.allow(fp.from, fp.to); err != nil {
		return PutResponse{}, err
	}
	return fp.next.ForwardWrite(key, value, tombstone, fwdEpoch)
}

func (fp *faultPeer) Get(keys [][]byte, out []readResp) error {
	if err := fp.f.allow(fp.from, fp.to); err != nil {
		return err
	}
	return fp.next.Get(keys, out)
}

func (fp *faultPeer) MerkleNodes(depth int) ([]uint64, error) {
	if err := fp.f.allow(fp.from, fp.to); err != nil {
		return nil, err
	}
	return fp.next.MerkleNodes(depth)
}

func (fp *faultPeer) BucketVersions(depth int, buckets []int) ([]kvstore.Version, error) {
	if err := fp.f.allow(fp.from, fp.to); err != nil {
		return nil, err
	}
	return fp.next.BucketVersions(depth, buckets)
}

// ExchangeMembership is control-plane traffic like Ping: only a crash or
// partition at either endpoint blocks it — a paused or lossy replica must
// still be able to learn about ring flips.
func (fp *faultPeer) ExchangeMembership(push []byte) ([]byte, error) {
	if err := fp.f.crashGate(fp.from, fp.to); err != nil {
		return nil, err
	}
	return fp.next.ExchangeMembership(push)
}

// Gossip and ConfigRPC are control plane like ExchangeMembership: drop and
// pause must not sever dissemination or consensus, but a crashed or
// partitioned endpoint is unreachable.
func (fp *faultPeer) Gossip(push []byte) ([]byte, error) {
	if err := fp.f.crashGate(fp.from, fp.to); err != nil {
		return nil, err
	}
	return fp.next.Gossip(push)
}

func (fp *faultPeer) ConfigRPC(payload []byte) ([]byte, error) {
	if err := fp.f.crashGate(fp.from, fp.to); err != nil {
		return nil, err
	}
	return fp.next.ConfigRPC(payload)
}

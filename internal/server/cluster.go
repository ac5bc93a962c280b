package server

// Cluster bootstrap: StartLocal launches an n-node cluster on loopback —
// every node gets an HTTP listener (the admin surface: /config, /stats,
// /wars, /healthz) and an internal TCP listener (the binary client
// protocol and the replication transport), all on 127.0.0.1 with
// OS-assigned ports. This is the harness behind cmd/pbs-serve and the
// end-to-end conformance suite; a production deployment runs one Node per
// machine with the same wiring (cmd/pbs-serve's single-node mode plus
// -join — see bootstrap.go).
//
// Every cluster carries a shared fault controller (faults.go): every
// node-to-node hop — write forwarding and coordinator fan-out included — is
// threaded through fault-wrapped Peers, so crashes,
// pauses, drops and delays can be injected at runtime — and the recovery
// subsystems (hinted handoff, Merkle anti-entropy) exercised — without
// touching the transport.
//
// The cluster is elastic: AddNode runs the full network join protocol
// (bootstrap, key-range streaming, ring flip) against the running nodes,
// and RemoveNode drains a member out. The tuner can drive these through
// SetConfig to retune N as well as (R, W).

import (
	"fmt"
	"net"
	"os"
	"sync"

	"pbs/internal/kvstore"
	"pbs/internal/ring"
	"pbs/internal/rng"
)

// Cluster is a set of locally running nodes.
type Cluster struct {
	Params Params
	Nodes  []*Node
	// HTTPAddrs are the HTTP admin base URLs ("http://127.0.0.1:port") of the
	// current members, in join order.
	HTTPAddrs []string

	faults    *Faults
	seeds     *rng.RNG
	mu        sync.Mutex // guards Nodes/HTTPAddrs mutation and seed draws
	closeOnce sync.Once
}

// listenPair binds one node's HTTP and internal listeners on loopback.
func listenPair() (httpLn, internalLn net.Listener, err error) {
	if httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, nil, fmt.Errorf("server: http listener: %w", err)
	}
	if internalLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		httpLn.Close()
		return nil, nil, fmt.Errorf("server: internal listener: %w", err)
	}
	return httpLn, internalLn, nil
}

// StartLocal boots a cluster of `nodes` replicas on loopback and returns
// once every node is serving. Callers must Close the cluster.
func StartLocal(nodes int, p Params) (*Cluster, error) {
	p.setDefaults()
	if err := p.validate(nodes); err != nil {
		return nil, err
	}
	if p.DataDir != "" {
		if err := os.MkdirAll(p.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: data dir: %w", err)
		}
	}

	httpLns := make([]net.Listener, nodes)
	internalLns := make([]net.Listener, nodes)
	closeAll := func() {
		for _, ln := range append(httpLns, internalLns...) {
			if ln != nil {
				ln.Close()
			}
		}
	}
	members := make([]ring.Member, nodes)
	for i := 0; i < nodes; i++ {
		var err error
		if httpLns[i], internalLns[i], err = listenPair(); err != nil {
			closeAll()
			return nil, err
		}
		members[i] = ring.Member{
			ID:           i,
			HTTPAddr:     "http://" + httpLns[i].Addr().String(),
			InternalAddr: internalLns[i].Addr().String(),
		}
	}
	membership, err := ring.NewMembership(members, p.Vnodes)
	if err != nil {
		closeAll()
		return nil, err
	}

	seeds := rng.New(p.Seed)
	faults := NewFaults(seeds.Uint64())
	c := &Cluster{Params: p, faults: faults, seeds: seeds}
	for i := 0; i < nodes; i++ {
		n, err := newNode(i, p, faults, seeds)
		if err != nil {
			c.Close()
			closeAll()
			return nil, err
		}
		n.selfHTTP, n.selfInternal = members[i].HTTPAddr, members[i].InternalAddr
		// The bootstrap configuration is slot 1 of every node's config log
		// (RecordDecide installs it), matching the single-seed path.
		n.cfglog.RecordDecide(1, ring.EncodeMembership(membership))
		n.start(httpLns[i], internalLns[i])
		c.Nodes = append(c.Nodes, n)
		c.HTTPAddrs = append(c.HTTPAddrs, members[i].HTTPAddr)
	}
	return c, nil
}

// Faults returns the cluster's shared fault controller.
func (c *Cluster) Faults() *Faults { return c.faults }

// liveNode returns the first node that has not been closed (RemoveNode
// keeps closed victims in Nodes so test indices stay valid — a closed
// node's view is frozen and must not represent the cluster).
func (c *Cluster) liveNode() *Node {
	for _, nd := range c.Nodes {
		if !nd.closed.Load() {
			return nd
		}
	}
	return c.Nodes[0]
}

// Membership returns the current versioned ring view (the first live
// node's snapshot).
func (c *Cluster) Membership() *ring.Membership {
	return c.liveNode().Membership()
}

// SetQuorums retunes the live read/write quorum sizes on every node —
// the apply half of Section 6's dynamic configuration. Operations already
// in flight finish under the quorums they loaded at admission.
func (c *Cluster) SetQuorums(r, w int) error {
	n := c.Replication()
	if r < 1 || r > n || w < 1 || w > n {
		return fmt.Errorf("server: quorums R=%d W=%d outside [1, N=%d]", r, w, n)
	}
	for _, nd := range c.Nodes {
		nd.rq.Store(int32(r))
		nd.wq.Store(int32(w))
	}
	return nil
}

// SetConfig retunes the full replication configuration (N, R, W) on every
// node. N may not exceed the current member count — grow the cluster with
// AddNode first.
func (c *Cluster) SetConfig(n, r, w int) error {
	if size := c.Membership().Size(); n < 1 || n > size {
		return fmt.Errorf("server: replication factor N=%d outside [1, %d members]", n, size)
	}
	if r < 1 || r > n || w < 1 || w > n {
		return fmt.Errorf("server: quorums R=%d W=%d outside [1, N=%d]", r, w, n)
	}
	for _, nd := range c.Nodes {
		nd.nrep.Store(int32(n))
		nd.rq.Store(int32(r))
		nd.wq.Store(int32(w))
	}
	return nil
}

// Quorums returns the current live read/write quorum sizes.
func (c *Cluster) Quorums() (r, w int) {
	n := c.liveNode()
	return int(n.rq.Load()), int(n.wq.Load())
}

// Replication returns the current live replication factor.
func (c *Cluster) Replication() int {
	return int(c.liveNode().nrep.Load())
}

// AddNode grows the cluster by one member through the real network join
// protocol: the new node bootstraps from the first live member, streams its
// key ranges from the current owners, and flips into the routing ring once
// caught up. It shares the cluster's fault controller and parameters.
func (c *Cluster) AddNode() (*Node, error) {
	c.mu.Lock()
	var seedAddr string
	for _, nd := range c.Nodes {
		if !nd.closed.Load() && !c.faults.Down(nd.id) {
			seedAddr = nd.selfInternal
			break
		}
	}
	seed := c.seeds.Uint64()
	c.mu.Unlock()
	if seedAddr == "" {
		return nil, fmt.Errorf("server: no live member to join through")
	}
	httpLn, internalLn, err := listenPair()
	if err != nil {
		return nil, err
	}
	// The joiner inherits the *live* configuration, not the startup
	// Params: quorums and N may have been retuned since StartLocal.
	p := c.Params
	p.N = c.Replication()
	p.R, p.W = c.Quorums()
	n, err := StartNode(NodeConfig{
		Params:           p,
		HTTPListener:     httpLn,
		InternalListener: internalLn,
		JoinAddr:         seedAddr,
		Faults:           c.faults,
		Seed:             seed,
	})
	if err != nil {
		httpLn.Close()
		internalLn.Close()
		return nil, err
	}
	c.mu.Lock()
	c.Nodes = append(c.Nodes, n)
	c.HTTPAddrs = append(c.HTTPAddrs, n.selfHTTP)
	c.mu.Unlock()
	return n, nil
}

// RemoveNode drains the given member out of the ring (bootstrap.go's
// Leave) and shuts it down. The node stays in Nodes (closed) so existing
// indices remain valid; its address is dropped from HTTPAddrs.
func (c *Cluster) RemoveNode(id int) error {
	var victim *Node
	for _, nd := range c.Nodes {
		if nd.id == id {
			victim = nd
			break
		}
	}
	if victim == nil {
		return fmt.Errorf("server: no member %d", id)
	}
	err := victim.Leave()
	victim.Close()
	c.mu.Lock()
	addrs := c.HTTPAddrs[:0]
	for _, a := range c.HTTPAddrs {
		if a != victim.selfHTTP {
			addrs = append(addrs, a)
		}
	}
	c.HTTPAddrs = addrs
	c.mu.Unlock()
	return err
}

// InjectVersion applies a version directly to one replica's local store,
// bypassing replication — a hook for tests and staleness-detector demos
// that need a replica to diverge deliberately.
func (c *Cluster) InjectVersion(node int, key string, seq uint64, value string) bool {
	return c.Nodes[node].applyLocal(kvstore.Version{Key: key, Seq: seq, Value: value})
}

// ReplicaSeq reads one replica's locally stored sequence number for key
// (0 when the replica has not seen the key), for convergence assertions.
func (c *Cluster) ReplicaSeq(node int, key string) uint64 {
	v, _ := c.Nodes[node].getLocal(key)
	return v.Seq
}

// HintsPending returns the number of undelivered hinted-handoff writes
// buffered across all coordinators.
func (c *Cluster) HintsPending() int {
	total := 0
	for _, n := range c.Nodes {
		total += n.store.HintStats().Pending
	}
	return total
}

// Stats aggregates every node's counters (Node.statsLocal) into one
// cluster-wide view: counters sum; R/W report the live quorums.
func (c *Cluster) Stats() StatsResponse {
	var agg StatsResponse
	agg.Node = -1
	for _, n := range c.Nodes {
		agg.Accumulate(n.statsLocal())
	}
	agg.R, agg.W = c.Quorums()
	return agg
}

// Close tears the cluster down: background services, HTTP servers,
// internal listeners, and every pooled peer connection. Idempotent.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		for _, n := range c.Nodes {
			n.Close()
		}
	})
}

package server

// Elastic membership: network bootstrap, live join with key-range
// streaming, and drained leaves.
//
// A joining node binds its listeners first, then asks any current member
// (the seed) for an ID assignment and the current membership (opJoin). It
// installs that membership — so it can immediately proxy client operations
// correctly, though no client routes to it yet — and bulk-pulls the key
// ranges it will own from every current owner (opStreamRange, cursor-paged
// scans filtered by the prospective ring). Once caught up it flips: it
// commits the next-epoch membership containing itself through the
// replicated ring-config log (ringlog.go) and the decision reaches every
// member; coordinators adopt the higher epoch atomically, so each
// operation runs entirely under one ring view. Writes committed under the
// old view during the window land on old owners, so the joiner runs delta
// pull rounds until a round transfers nothing new — at which point every
// acknowledged write it owns is local.
//
// Leaves drain the same ranges in reverse: the leaver pushes every local
// version to its new owners under the shrunk ring, commits the next epoch
// through the config log, and can then shut down.
//
// ID assignment is serialized per seed (guarded and monotone), but epoch
// arbitration is consensus: every membership change commits through the
// config log, so concurrent joins through *different* seeds propose rival
// configurations for the same slot, exactly one wins, and the loser
// adopts the decision and re-proposes at the next slot. Dissemination is
// the log's decide broadcast plus an opMembership push, with gossip
// (gossip.go) converging any member both missed.

import (
	"container/heap"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"pbs/internal/configlog"
	"pbs/internal/gossip"
	"pbs/internal/kvstore"
	"pbs/internal/ring"
	"pbs/internal/rng"
	"pbs/internal/storage"
)

const (
	// streamPageSize bounds one opStreamRange response by version count;
	// streamPageBytes bounds it by approximate encoded size (values can be
	// up to 1 MiB and a page must stay well under the transport's
	// maxFrame).
	streamPageSize  = 512
	streamPageBytes = 4 << 20
	// maxDeltaRounds bounds the post-flip catch-up loop; each round that
	// transfers nothing new terminates it early.
	maxDeltaRounds = 20
	// deltaRoundPause spaces delta rounds, letting in-flight writes from
	// old-view coordinators land before the next scan.
	deltaRoundPause = 25 * time.Millisecond
	// maxConfigSlots bounds how many consecutive config-log slots a single
	// join or leave will contest. Unlike the old bounded epoch-race retry,
	// every consumed slot is a committed configuration — hitting this bound
	// means the cluster reconfigured 32 times while we tried, not that we
	// flipped a coin and lost.
	maxConfigSlots = 32
)

// NodeConfig configures one standalone node (cmd/pbs-serve -join, or
// Cluster.AddNode).
type NodeConfig struct {
	// Params mirror the cluster-wide parameters. N may exceed the current
	// member count; the effective replication factor clamps until enough
	// nodes join.
	Params Params
	// HTTPListener and InternalListener must already be bound; the node
	// takes ownership.
	HTTPListener, InternalListener net.Listener
	// JoinAddr is the internal (replication transport) address of any
	// current cluster member. Empty starts a fresh single-node cluster
	// (the seed) with member ID SeedID.
	JoinAddr string
	// SeedID is the member ID of a seed node (ignored when joining).
	SeedID int
	// Faults optionally shares a fault controller (in-process test
	// clusters); nil gives the node a private idle controller.
	Faults *Faults
	// Seed drives latency-injection and leg-sampling randomness.
	Seed uint64
	// AdvertiseHTTP and AdvertiseInternal override the addresses this node
	// publishes to peers and clients (ring membership, /config, join
	// handshakes). A multi-host node typically binds 0.0.0.0 but must
	// advertise a host its peers can dial; empty falls back to the bound
	// listener addresses.
	AdvertiseHTTP, AdvertiseInternal string
}

// newNode builds the common core of a node (storage, injector, counters)
// without listeners or membership. With Params.DataDir set, the node runs
// on the durable storage engine at DataDir/node-<id> — opening it replays
// any persisted state, so a restarted node comes back holding everything
// it ever acked.
func newNode(id int, p Params, faults *Faults, seeds *rng.RNG) (*Node, error) {
	var store kvstore.Engine
	if p.DataDir != "" {
		eng, err := storage.Open(storage.Options{
			Dir:           filepath.Join(p.DataDir, fmt.Sprintf("node-%d", id)),
			Fsync:         p.Fsync,
			MemtableBytes: p.MemtableBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("server: open storage engine: %w", err)
		}
		store = eng
	} else {
		store = kvstore.NewSynced()
	}
	n := &Node{
		id:           id,
		params:       p,
		inj:          newInjector(p.Model, p.Scale, seeds.Uint64()),
		epoch:        time.Now(),
		store:        store,
		faults:       faults,
		live:         newLiveness(),
		pendingJoins: make(map[string]int),
		stop:         make(chan struct{}),
		accepted:     make(map[net.Conn]struct{}),
	}
	n.rq.Store(int32(p.R))
	n.wq.Store(int32(p.W))
	n.nrep.Store(int32(p.N))
	n.gossip = gossip.New(id)
	n.cfglog = configlog.New(n.onConfigDecided)
	n.cfgDigests = make(map[uint64]uint64)
	if p.WARSSampling {
		n.legs = newLegSampler(seeds.Uint64())
	}
	return n, nil
}

// start wires the listeners and background services.
func (n *Node) start(httpLn, internalLn net.Listener) {
	n.internalLn = internalLn
	n.httpSrv = &http.Server{Handler: n.handler()}
	go n.serveInternal(internalLn)
	go n.httpSrv.Serve(httpLn)
	if n.params.Handoff {
		go n.runHandoff(n.params.HandoffInterval)
	}
	if n.params.AntiEntropy {
		go n.runAntiEntropy(n.params.AntiEntropyInterval, n.params.MerkleDepth)
	}
	if !n.params.DisableGossip {
		go n.runGossip(n.params.GossipInterval)
	}
}

// Close tears the node down: background services, HTTP server, internal
// listener and every connection it accepted, storage engine, and pooled
// peer connections. Idempotent.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		n.closed.Store(true)
		close(n.stop)
		if n.httpSrv != nil {
			n.httpSrv.Close()
		}
		if n.internalLn != nil {
			n.internalLn.Close()
		}
		n.acceptedMu.Lock()
		conns := n.accepted
		n.accepted = nil
		n.acceptedMu.Unlock()
		for c := range conns {
			c.Close()
		}
		if e, ok := n.store.(*storage.Engine); ok {
			e.Close()
		}
		n.closePeers()
	})
}

// ID returns the node's member ID.
func (n *Node) ID() int { return n.id }

// HTTPAddr returns the base URL of the node's HTTP admin surface.
func (n *Node) HTTPAddr() string { return n.selfHTTP }

// InternalAddr returns the node's replication-transport address.
func (n *Node) InternalAddr() string { return n.selfInternal }

// Faults returns the node's fault controller, so a standalone process
// (pbs-serve's single-node mode) can run scripted fault schedules against
// itself.
func (n *Node) Faults() *Faults { return n.faults }

// RingEpoch returns the node's current ring epoch (0 before the first
// membership install).
func (n *Node) RingEpoch() uint64 {
	if v := n.view(); v != nil {
		return v.m.Epoch()
	}
	return 0
}

// Membership returns the node's current membership view.
func (n *Node) Membership() *ring.Membership {
	if v := n.view(); v != nil {
		return v.m
	}
	return nil
}

// StartNode boots one standalone node. With an empty JoinAddr it seeds a
// fresh single-node cluster; otherwise it runs the full join protocol
// against the given member and returns only once the node is a fully
// caught-up replica in the routing ring.
func StartNode(cfg NodeConfig) (*Node, error) {
	p := cfg.Params
	p.setDefaults()
	if err := p.validateElastic(); err != nil {
		return nil, err
	}
	if cfg.HTTPListener == nil || cfg.InternalListener == nil {
		return nil, errors.New("server: StartNode needs bound listeners")
	}
	// Published addresses default to the bound ones; -advertise swaps in a
	// peer-dialable host (multi-host deployments binding 0.0.0.0) while
	// keeping the actual bound port.
	httpAddr := "http://" + advertised(cfg.HTTPListener.Addr().String(), cfg.AdvertiseHTTP)
	internalAddr := advertised(cfg.InternalListener.Addr().String(), cfg.AdvertiseInternal)

	seeds := rng.New(cfg.Seed)
	faults := cfg.Faults
	if faults == nil {
		faults = NewFaults(seeds.Uint64())
	}

	if cfg.JoinAddr == "" {
		// Seed: a single-member cluster at epoch 1.
		m, err := ring.NewMembership([]ring.Member{{
			ID: cfg.SeedID, HTTPAddr: httpAddr, InternalAddr: internalAddr,
		}}, p.Vnodes)
		if err != nil {
			return nil, err
		}
		n, err := newNode(cfg.SeedID, p, faults, seeds)
		if err != nil {
			return nil, err
		}
		n.selfHTTP, n.selfInternal = httpAddr, internalAddr
		// The seed configuration is slot 1 of the config log: every
		// membership a node ever holds flows through a decided slot, so the
		// digest pinned per epoch always traces back to a decision.
		n.cfglog.RecordDecide(1, ring.EncodeMembership(m))
		n.start(cfg.HTTPListener, cfg.InternalListener)
		return n, nil
	}

	// Join handshake: ask the seed for an ID and the current membership.
	sp := newPeer(cfg.JoinAddr)
	defer sp.close()
	id, memBytes, err := sp.Join(httpAddr, internalAddr)
	if err != nil {
		return nil, fmt.Errorf("server: join handshake with %s: %w", cfg.JoinAddr, err)
	}
	m, err := ring.DecodeMembership(memBytes)
	if err != nil {
		return nil, fmt.Errorf("server: join handshake with %s: %w", cfg.JoinAddr, err)
	}
	n, err := newNode(id, p, faults, seeds)
	if err != nil {
		return nil, err
	}
	n.selfHTTP, n.selfInternal = httpAddr, internalAddr
	// Install the pre-join membership first: the node can serve (proxying
	// to the real owners) and answer internal RPCs while it catches up,
	// but no coordinator routes replicas to it until the flip.
	n.installMembership(m)
	n.start(cfg.HTTPListener, cfg.InternalListener)
	if err := n.completeJoin(); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// advertised resolves the address a node publishes for one listener: the
// bound address unless an advertise override is given. An override without
// a port (a bare host) keeps the bound port — the common case where only
// the host is unroutable, e.g. a bind to 0.0.0.0 with OS-assigned ports.
func advertised(bound, override string) string {
	if override == "" {
		return bound
	}
	if _, _, err := net.SplitHostPort(override); err == nil {
		return override
	}
	_, port, err := net.SplitHostPort(bound)
	if err != nil {
		return override
	}
	return net.JoinHostPort(override, port)
}

// self returns this node's member record.
func (n *Node) self() ring.Member {
	return ring.Member{ID: n.id, HTTPAddr: n.selfHTTP, InternalAddr: n.selfInternal}
}

// completeJoin runs the catch-up + flip + delta phases of a join.
func (n *Node) completeJoin() error {
	// Bulk catch-up: stream the ranges we will own from every current
	// owner. A member that is down is skipped — the ranges it holds are
	// replicated on the others, and the post-flip delta rounds plus
	// anti-entropy mop up anything only it held.
	v := n.view()
	var pullErr error
	for _, mem := range membersExcept(v.m, n.id) {
		if _, err := n.pullRangeFrom(mem); err != nil && pullErr == nil {
			pullErr = err
		}
	}

	// Flip: commit the next-epoch membership containing us through the
	// config log. A concurrent change proposing the same slot means exactly
	// one of us wins it; losing installs the rival configuration and we
	// re-propose on top of it at the next slot — every iteration, win or
	// lose, is a committed configuration, so the old bounded-retry failure
	// ("kept losing epoch races") cannot happen.
	var next *ring.Membership
	for attempt := 0; ; attempt++ {
		cur := n.view().m
		if mem, ok := cur.Member(n.id); ok {
			if mem.InternalAddr != n.selfInternal {
				// A rival joiner admitted under a divergent view committed
				// our ID with its own addresses. Succeeding here would leave
				// the ring routing our ID to the rival; abort instead (the
				// operator restarts the join, getting a fresh ID).
				return fmt.Errorf("server: join flip: member ID %d was claimed by %s in a concurrent join", n.id, mem.InternalAddr)
			}
			next = cur // a decided configuration already includes us
			break
		}
		if attempt >= maxConfigSlots {
			return fmt.Errorf("server: join flip unresolved after %d committed reconfigurations", maxConfigSlots)
		}
		joined, err := cur.Join(n.self())
		if err != nil {
			return fmt.Errorf("server: join flip: %w", err)
		}
		decided, err := n.proposeConfig(cur, joined)
		if err != nil {
			return fmt.Errorf("server: join flip: %w", err)
		}
		if decided.Contains(n.id) {
			next = decided
			break
		}
		// Lost the slot to a rival change; its configuration is installed
		// locally now, and the next iteration proposes on top of it.
	}
	if err := n.broadcastMembership(next); err != nil {
		// Best-effort: the configuration is committed in the log and the
		// decide broadcast reached a majority; gossip converges the rest.
		log.Printf("server: node %d: membership push after join: %v", n.id, err)
	}

	// Delta rounds: writes coordinated under the old view during the flip
	// landed on old owners; pull until a full round transfers nothing new.
	for round := 0; round < maxDeltaRounds; round++ {
		time.Sleep(deltaRoundPause)
		applied := 0
		cur := n.view().m
		for _, mem := range membersExcept(cur, n.id) {
			a, err := n.pullRangeFrom(mem)
			applied += a
			if err != nil && pullErr == nil {
				pullErr = err
			}
		}
		if applied == 0 {
			return nil
		}
	}
	if pullErr != nil {
		return fmt.Errorf("server: join catch-up incomplete: %w", pullErr)
	}
	return nil
}

// pullRangeFrom streams every version of the requester-owned ranges from
// one member, applying them locally. Returns how many versions changed
// local state.
func (n *Node) pullRangeFrom(mem ring.Member) (applied int, err error) {
	p := newPeer(mem.InternalAddr)
	defer p.close()
	cursor := ""
	for {
		resp, err := p.StreamRange(streamRangeRequest{requester: n.self(), cursor: cursor, max: streamPageSize})
		if err != nil {
			return applied, fmt.Errorf("stream from member %d: %w", mem.ID, err)
		}
		for _, ver := range resp.versions {
			if n.applyLocal(ver) {
				applied++
			}
		}
		if resp.done {
			return applied, nil
		}
		if resp.next <= cursor {
			return applied, fmt.Errorf("stream from member %d: cursor did not advance", mem.ID)
		}
		cursor = resp.next
	}
}

// broadcastMembership pushes m to every member except ourselves, adopting
// any newer membership a member answers with. A member that cannot be
// reached after retries is skipped with an error: it is either down (it
// will pull the view on recovery via gossip/anti-entropy paths) or
// partitioned.
func (n *Node) broadcastMembership(m *ring.Membership) error {
	enc := ring.EncodeMembership(m)
	var firstErr error
	for _, mem := range membersExcept(m, n.id) {
		resp, err := pushMembershipTo(mem.InternalAddr, enc)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("member %d: %w", mem.ID, err)
			}
			continue
		}
		peerM, err := ring.DecodeMembership(resp)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("member %d: %w", mem.ID, err)
			}
			continue
		}
		if peerM.Epoch() > m.Epoch() {
			n.installMembership(peerM)
		} else if peerM.Epoch() == m.Epoch() && !peerM.Equal(m) {
			if firstErr == nil {
				firstErr = fmt.Errorf("member %d: concurrent membership change at epoch %d", mem.ID, m.Epoch())
			}
		}
	}
	return firstErr
}

// pushMembershipTo performs one opMembership push over a fresh connection,
// with bounded retries.
func pushMembershipTo(addr string, enc []byte) ([]byte, error) {
	p := newPeer(addr)
	defer p.close()
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(50 * time.Millisecond)
		}
		resp, err := p.ExchangeMembership(enc)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// Leave drains this node out of the ring: every locally stored version is
// pushed to its owners under the shrunk membership, then the next-epoch
// membership (without this node) is committed through the config log. The
// caller should Close the node afterwards. The reverse of a join's
// catch-up.
func (n *Node) Leave() error {
	v := n.view()
	if v == nil {
		return errors.New("server: node has no membership")
	}
	next, err := v.m.Leave(n.id)
	if err != nil {
		return err
	}
	nrep := int(n.nrep.Load())
	if sz := next.Size(); nrep > sz {
		nrep = sz
	}
	vers := n.store.Versions()
	var drainErr error
	for _, ver := range vers {
		for _, owner := range next.PreferenceList(ver.Key, nrep) {
			p, ok := v.peers[owner]
			if !ok {
				continue
			}
			if _, _, err := p.Apply(ver); err != nil && drainErr == nil {
				drainErr = fmt.Errorf("server: drain to member %d: %w", owner, err)
			}
		}
	}
	// Commit the departure, re-proposing on top of rival configurations
	// (a concurrent join that won our slot) until one without us commits.
	for attempt := 0; ; attempt++ {
		cur := n.view().m
		if !cur.Contains(n.id) {
			next = cur
			break
		}
		if attempt >= maxConfigSlots {
			if drainErr == nil {
				drainErr = fmt.Errorf("server: leave unresolved after %d committed reconfigurations", maxConfigSlots)
			}
			return drainErr
		}
		shrunk, err := cur.Leave(n.id)
		if err != nil {
			if drainErr == nil {
				drainErr = err
			}
			return drainErr
		}
		decided, err := n.proposeConfig(cur, shrunk)
		if err != nil {
			if drainErr == nil {
				drainErr = err
			}
			return drainErr
		}
		if !decided.Contains(n.id) {
			next = decided
			break
		}
	}
	if err := n.broadcastMembership(next); err != nil {
		// Best-effort, as in completeJoin: the log's decide broadcast plus
		// gossip converge any member the push missed.
		log.Printf("server: node %d: membership push after leave: %v", n.id, err)
	}
	return drainErr
}

// --- opJoin / opMembership / opStreamRange server side ------------------

// handleJoinRequest admits a prospective member: it assigns a fresh ID
// (monotone, never reused, idempotent per joiner address) and returns the
// current membership for the joiner to bootstrap from. The joiner is NOT
// added to the ring here — it flips itself in once caught up.
func (n *Node) handleJoinRequest(httpAddr, internalAddr string) (id int, membership []byte, err error) {
	if httpAddr == "" || internalAddr == "" {
		return 0, nil, errors.New("server: join needs both addresses")
	}
	n.memMu.Lock()
	defer n.memMu.Unlock()
	v := n.mem.Load()
	if v == nil {
		return 0, nil, errors.New("server: node has no membership yet")
	}
	enc := ring.EncodeMembership(v.m)
	for _, mem := range v.m.Members() {
		if mem.InternalAddr == internalAddr {
			return mem.ID, enc, nil // idempotent re-join of a known member
		}
	}
	if pending, ok := n.pendingJoins[internalAddr]; ok {
		return pending, enc, nil // retry of an in-flight join
	}
	id = v.m.NextID()
	// Stagger assignment by this seed's rank in the ring: concurrent joins
	// admitted through *different* seeds of the same view then start from
	// disjoint IDs, so they contend only for the epoch slot (which the
	// config log arbitrates), never for an identity. completeJoin still
	// hard-fails if an ID is claimed by a rival under divergent views.
	for i, mem := range v.m.Members() {
		if mem.ID == n.id {
			id += i
			break
		}
	}
	if id <= n.lastAssigned {
		id = n.lastAssigned + 1
	}
	n.lastAssigned = id
	n.pendingJoins[internalAddr] = id
	return id, enc, nil
}

// handleMembershipExchange installs a pushed membership if it is newer and
// answers with the node's current membership either way.
func (n *Node) handleMembershipExchange(payload []byte) ([]byte, error) {
	if len(payload) > 0 {
		m, err := ring.DecodeMembership(payload)
		if err != nil {
			return nil, err
		}
		n.installMembership(m)
	}
	v := n.view()
	if v == nil {
		return nil, errors.New("server: node has no membership yet")
	}
	return ring.EncodeMembership(v.m), nil
}

// streamRangeRequest asks a member for one page of the versions whose keys
// the requester owns under the prospective membership (current ∪
// requester).
type streamRangeRequest struct {
	requester ring.Member
	cursor    string // exclusive lower key bound; "" starts the scan
	max       int    // page size cap
}

func (r streamRangeRequest) encode() []byte {
	b := make([]byte, 0, 16+len(r.requester.HTTPAddr)+len(r.requester.InternalAddr)+len(r.cursor))
	b = append(b, byte(r.requester.ID>>24), byte(r.requester.ID>>16), byte(r.requester.ID>>8), byte(r.requester.ID))
	b = appendString16(b, r.requester.HTTPAddr)
	b = appendString16(b, r.requester.InternalAddr)
	b = appendString16(b, r.cursor)
	b = append(b, byte(r.max>>8), byte(r.max))
	return b
}

func decodeStreamRangeRequest(d *decoder) (streamRangeRequest, error) {
	var r streamRangeRequest
	r.requester.ID = int(int32(d.u32()))
	r.requester.HTTPAddr = d.string16()
	r.requester.InternalAddr = d.string16()
	r.cursor = d.string16()
	r.max = int(d.u16())
	if d.err != nil {
		return r, d.err
	}
	if r.requester.ID < 0 {
		return r, fmt.Errorf("server: negative stream requester id %d", r.requester.ID)
	}
	return r, nil
}

// streamRangeResponse is one page of streamed versions.
type streamRangeResponse struct {
	done     bool
	next     string // resume cursor when !done
	versions []kvstore.Version
}

func (r streamRangeResponse) encode() []byte {
	b := []byte{0}
	if r.done {
		b[0] = 1
	}
	b = appendString16(b, r.next)
	b = append(b, byte(len(r.versions)>>24), byte(len(r.versions)>>16), byte(len(r.versions)>>8), byte(len(r.versions)))
	for _, v := range r.versions {
		b = encodeVersion(b, v)
	}
	return b
}

func decodeStreamRangeResponse(payload []byte) (streamRangeResponse, error) {
	d := &decoder{b: payload}
	var r streamRangeResponse
	r.done = d.u8() == 1
	r.next = d.string16()
	count := int(d.u32())
	if d.err != nil {
		return r, d.err
	}
	if count > len(payload)/16 {
		return r, errors.New("server: malformed stream response")
	}
	r.versions = make([]kvstore.Version, 0, count)
	for i := 0; i < count; i++ {
		v := d.version()
		if d.err != nil {
			return r, d.err
		}
		r.versions = append(r.versions, v)
	}
	return r, nil
}

// streamChunkKeys bounds how many candidate keys one page scan selects
// before ownership filtering — the cursor advances by at most this many
// keys per page, whatever fraction the requester owns.
const streamChunkKeys = 4096

// keyMaxHeap is a bounded max-heap of keys: keeping the largest selected
// key at the root lets one O(K log C) pass extract the C smallest keys
// above the cursor without snapshotting or sorting the whole store.
type keyMaxHeap []string

func (h keyMaxHeap) Len() int           { return len(h) }
func (h keyMaxHeap) Less(i, j int) bool { return h[i] > h[j] }
func (h keyMaxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *keyMaxHeap) Push(x any)        { *h = append(*h, x.(string)) }
func (h *keyMaxHeap) Pop() any          { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// handleStreamRange serves one page of the versions the requester owns
// under the prospective membership. The scan walks this node's keys in
// sorted order from the cursor, so repeated pages cover the store exactly
// once per pass and the protocol needs no server-side session state. Each
// page selects only the next streamChunkKeys keys above the cursor (one
// bounded-heap pass over the store), keeping a full pull near-linear in
// store size instead of re-sorting everything per page.
func (n *Node) handleStreamRange(req streamRangeRequest) (streamRangeResponse, error) {
	v := n.view()
	if v == nil {
		return streamRangeResponse{}, errors.New("server: node has no membership yet")
	}
	prospective := v.m
	if !prospective.Contains(req.requester.ID) {
		joined, err := prospective.Join(req.requester)
		if err != nil {
			return streamRangeResponse{}, err
		}
		prospective = joined
	}
	nrep := int(n.nrep.Load())
	if sz := prospective.Size(); nrep > sz {
		nrep = sz
	}
	max := req.max
	if max <= 0 || max > streamPageSize {
		max = streamPageSize
	}

	h := make(keyMaxHeap, 0, streamChunkKeys)
	n.store.Range(func(ver kvstore.Version) {
		k := ver.Key
		if k <= req.cursor {
			return
		}
		if len(h) < streamChunkKeys {
			heap.Push(&h, k)
			return
		}
		if k < h[0] {
			h[0] = k
			heap.Fix(&h, 0)
		}
	})
	full := len(h) == streamChunkKeys
	keys := []string(h)
	sort.Strings(keys)

	var resp streamRangeResponse
	bytes := 0
	capped := false
	for _, k := range keys {
		resp.next = k
		owned := false
		for _, id := range prospective.PreferenceList(k, nrep) {
			if id == req.requester.ID {
				owned = true
				break
			}
		}
		if !owned {
			continue
		}
		ver, ok := n.getLocal(k)
		if !ok {
			continue
		}
		resp.versions = append(resp.versions, ver)
		bytes += len(ver.Key) + len(ver.Value) + 32
		if len(resp.versions) >= max || bytes >= streamPageBytes {
			capped = true
			break
		}
	}
	resp.done = !capped && !full
	return resp, nil
}

package server

// Replica-to-replica transport. Internal replication traffic (version
// propagation, replica reads, read repair) uses a length-prefixed binary
// protocol on each node's internal port — every coordinated operation fans
// out N internal RPCs, so the internal path is the hot path. The same port
// serves the binary client protocol (clientproto.go), which is also how a
// node forwards a write to the key's coordinator (peer.ForwardWrite); HTTP
// is only the admin surface (node.go).
//
// Two wire formats share the port. v1 is the blocking protocol: one
// request frame per RPC, one response frame back, at most one RPC in
// flight per connection, concurrency from a free-list pool of connections
// per peer.
//
//	request:  op(u8)     | len(u32) | payload
//	response: status(u8) | len(u32) | payload (error text when status != 0)
//
// v2 (mux.go) extends the header with a request ID and multiplexes many
// in-flight RPCs over a small fixed set of connections per peer; a
// connection upgrades from v1 with an opMuxHello frame. Data-plane ops
// (Apply, ApplyHinted, GetVersion, Ping) default to v2; control-plane ops
// (membership, gossip, consensus, anti-entropy, range streaming) are not
// hot and stay on the v1 pool.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pbs/internal/kvstore"
)

const (
	opApply     byte = 1
	opGet       byte = 2
	opTree      byte = 3
	opBucket    byte = 4
	opPing      byte = 5
	opApplyHint byte = 6
	// Elastic-membership control plane (bootstrap.go): opJoin asks a seed
	// member for an ID assignment and the current membership; opMembership
	// pushes/pulls the versioned membership (ring flips and gossip);
	// opStreamRange streams the versions of the key ranges a joining (or
	// catching-up) node owns under a prospective membership.
	opJoin        byte = 7
	opMembership  byte = 8
	opStreamRange byte = 9
	// opGossip exchanges heartbeat/epoch tables plus the sender's full
	// membership (gossip.go, internal/gossip); opConfigLog carries the
	// ring-config consensus protocol (internal/configlog) — prepare, accept,
	// and decide messages arbitrating membership epochs.
	opGossip    byte = 10
	opConfigLog byte = 11
	// Batched data-plane ops (12 is opMuxHello, 13–21 the client protocol):
	// one frame carries one coordinator's whole share of a multi-key batch
	// for one peer — a length-prefixed version list for opApplyBatch, a key
	// list for opGetBatch — answered per entry, index-aligned.
	opApplyBatch byte = 22
	opGetBatch   byte = 23

	statusOK  byte = 0
	statusErr byte = 1

	// maxFrame bounds a payload so a corrupt length prefix cannot trigger a
	// huge allocation.
	maxFrame = 16 << 20

	// peerPoolSize caps the idle connections kept per peer.
	peerPoolSize = 64

	// rpcTimeout bounds one internal round trip. Injected WARS delays are
	// served on the coordinator before the RPC starts and after it returns,
	// so this only covers real network plus handler time.
	rpcTimeout = 10 * time.Second
)

// --- wire encoding -----------------------------------------------------

func appendString16(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendString32(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || len(d.b) < n {
		d.err = errors.New("server: short frame")
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) string16() string { return string(d.take(int(d.u16()))) }
func (d *decoder) string32() string { return string(d.take(int(d.u32()))) }

// versionFlagTombstone marks a replicated delete in the wire format's
// version flags byte.
const versionFlagTombstone byte = 1 << 0

// encodeVersion appends v in the version layout of the wire and the hint
// logs:
//
//	u16 keyLen | key | u64 seq | u8 flags | u32 valueLen | value |
//	u16 clockLen | (u32 node | u64 ctr)*
//
// Seq alone orders versions, so clockLen is always 0; decoders skip any
// entries, which hint logs written when versions carried vector clocks
// still hold.
func encodeVersion(b []byte, v kvstore.Version) []byte {
	b = appendString16(b, v.Key)
	b = binary.BigEndian.AppendUint64(b, v.Seq)
	var flags byte
	if v.Tombstone {
		flags |= versionFlagTombstone
	}
	b = append(b, flags)
	b = appendString32(b, v.Value)
	return binary.BigEndian.AppendUint16(b, 0) // clockLen
}

// skipClock consumes a version's clock entries without decoding them.
func (d *decoder) skipClock() { d.take(12 * int(d.u16())) }

func (d *decoder) version() kvstore.Version {
	var v kvstore.Version
	v.Key = d.string16()
	v.Seq = d.u64()
	v.Tombstone = d.u8()&versionFlagTombstone != 0
	v.Value = d.string32()
	d.skipClock()
	return v
}

// versionForKey decodes a version whose key the caller already holds (a
// get response echoes the requested key), reusing the caller's string
// instead of allocating a copy — one leg per replica per coordinated
// read, so this alone is worth a few allocs/op on the serving hot path.
// The comparison below does not allocate; a mismatched echo (never
// expected) falls back to copying.
func (d *decoder) versionForKey(key string) kvstore.Version {
	var v kvstore.Version
	kb := d.take(int(d.u16()))
	if string(kb) == key {
		v.Key = key
	} else {
		v.Key = string(kb)
	}
	v.Seq = d.u64()
	v.Tombstone = d.u8()&versionFlagTombstone != 0
	v.Value = d.string32()
	d.skipClock()
	return v
}

// --- framing -----------------------------------------------------------

func writeFrame(w *bufio.Writer, tag byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = tag
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

func readFrame(r *bufio.Reader) (tag byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("server: frame of %d bytes exceeds limit", n)
	}
	payload = make([]byte, n)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// applyResponse installs a replicated version and encodes the apply
// answer into buf (hot path: a pooled scratch; nil allocates): whether
// local state changed, plus the replica's now-current seq for the key. The
// seq lets a coordinator detect that its write was ignored in favor of a
// *higher-epoch* version — the signature of a recovered primary
// coordinating in a stale epoch — and refuse to count the leg toward W
// (see deliverWrite).
func (n *Node) applyResponse(v kvstore.Version, buf []byte) []byte {
	applied := n.applyLocal(v)
	cur, _ := n.getLocal(v.Key)
	out := append(buf, 0)
	if applied {
		out[len(out)-1] = 1
	}
	return binary.BigEndian.AppendUint64(out, cur.Seq)
}

// --- server side -------------------------------------------------------

// serveInternal accepts internal connections until the listener closes.
func (n *Node) serveInternal(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.acceptedMu.Lock()
		open := n.accepted != nil
		if open {
			n.accepted[conn] = struct{}{}
		}
		n.acceptedMu.Unlock()
		if !open {
			conn.Close() // accepted as Close ran
			return
		}
		go n.serveConn(conn)
	}
}

func (n *Node) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		n.acceptedMu.Lock()
		delete(n.accepted, conn)
		n.acceptedMu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, muxIOBuf)
	bw := bufio.NewWriter(conn)
	for {
		op, payload, err := readFrame(br)
		if err != nil {
			return // peer closed or broken connection
		}
		if op == opMuxHello {
			// Upgrade to tagged framing (wire format v2): acknowledge in v1,
			// then hand the connection — and whatever the buffered reader
			// already holds — to the multiplexed serve loop.
			if len(payload) != 1 || payload[0] != muxVersion {
				if err := writeFrame(bw, statusErr, []byte("server: unsupported mux version")); err != nil {
					return
				}
				continue
			}
			if err := writeFrame(bw, statusOK, []byte{muxVersion}); err != nil {
				return
			}
			n.serveMux(conn, br)
			return
		}
		if op == opClientHello {
			// Client-protocol upgrade: same v2 machinery, but the hello reply
			// carries {version, node ID, ring epoch} so the client learns who
			// answered and how fresh its routing view is before the first op.
			if len(payload) != 1 || payload[0] != clientProtoVersion {
				if err := writeFrame(bw, statusErr, []byte("server: unsupported client protocol version")); err != nil {
					return
				}
				continue
			}
			hello := make([]byte, 0, 13)
			hello = append(hello, clientProtoVersion)
			hello = binary.BigEndian.AppendUint32(hello, uint32(n.id))
			hello = binary.BigEndian.AppendUint64(hello, n.RingEpoch())
			if err := writeFrame(bw, statusOK, hello); err != nil {
				return
			}
			n.serveMux(conn, br)
			return
		}
		status, resp := n.handleRPC(op, payload)
		if err := writeFrame(bw, status, resp); err != nil {
			return
		}
	}
}

// handleRPC dispatches one internal request against local replica state.
func (n *Node) handleRPC(op byte, payload []byte) (status byte, resp []byte) {
	return n.handleRPCBuf(op, payload, nil)
}

// handleRPCBuf is handleRPC with a caller-provided response scratch (the
// mux serve loop passes a pooled buffer; hot-path ops append their
// response to it, cold ops ignore it). Crashed replicas refuse every
// request: fault injection interposes on the sender side (peers.go), and
// this server-side check keeps the crash airtight for callers that reach
// the TCP endpoint directly.
func (n *Node) handleRPCBuf(op byte, payload, buf []byte) (status byte, resp []byte) {
	if clientOp(op) {
		// Client-protocol ops answer in the client status family and carry
		// their own fault handling (typed retryable frames, not bare
		// statusErr), so they branch before the peer-path fault checks.
		return n.handleClientOp(op, payload, buf)
	}
	if n.faults.Down(n.id) {
		return statusErr, []byte(ErrReplicaDown.Error())
	}
	// A partitioned replica refuses inbound traffic too, so the cut is
	// bidirectional even for callers in other processes whose own fault
	// controller has no entry for this node.
	if n.faults.Partitioned(n.id) {
		return statusErr, []byte(ErrPartitioned.Error())
	}
	d := &decoder{b: payload}
	switch op {
	case opApply:
		v := d.version()
		if d.err != nil {
			return statusErr, []byte(d.err.Error())
		}
		return statusOK, n.applyResponse(v, buf)
	case opPing:
		// Liveness probe: reaching this point proves the replica is up
		// (crashed replicas were already refused above).
		return statusOK, append(buf, 1)
	case opApplyHint:
		// A sloppy-quorum spare write: install the version locally and
		// remember which preference-list replica it was intended for, so
		// this node's handoff replayer delivers it once the target
		// recovers (Dynamo Section 4.6).
		target := int(int32(d.u32()))
		v := d.version()
		if d.err != nil {
			return statusErr, []byte(d.err.Error())
		}
		if mv := n.view(); mv == nil || !mv.m.Contains(target) {
			return statusErr, []byte(fmt.Sprintf("server: hint target %d is not a cluster member", target))
		}
		resp := n.applyResponse(v, buf)
		if n.handoff != nil {
			n.handoff.store(target, v)
		}
		return statusOK, resp
	case opGet:
		key := d.string16()
		if d.err != nil {
			return statusErr, []byte(d.err.Error())
		}
		v, found := n.getLocal(key)
		out := append(buf, 0)
		if found {
			out[len(out)-1] = 1
		}
		return statusOK, encodeVersion(out, v)
	case opApplyBatch:
		count := int(d.u16())
		if d.err != nil || count == 0 || count > maxBatchOps {
			return statusErr, []byte("server: malformed batch apply")
		}
		out := buf
		for i := 0; i < count; i++ {
			v := d.version()
			if d.err != nil {
				return statusErr, []byte(d.err.Error())
			}
			out = n.applyResponse(v, out)
		}
		return statusOK, out
	case opGetBatch:
		count := int(d.u16())
		if d.err != nil || count == 0 || count > maxBatchOps {
			return statusErr, []byte("server: malformed batch get")
		}
		out := buf
		for i := 0; i < count; i++ {
			key := d.string16()
			if d.err != nil {
				return statusErr, []byte(d.err.Error())
			}
			v, found := n.getLocal(key)
			if found {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
			out = encodeVersion(out, v)
		}
		return statusOK, out
	case opTree:
		depth := int(d.u8())
		if d.err != nil {
			return statusErr, []byte(d.err.Error())
		}
		if depth < 1 || depth > maxMerkleDepth {
			return statusErr, []byte(fmt.Sprintf("server: merkle depth %d outside [1, %d]", depth, maxMerkleDepth))
		}
		nodes := n.localTree(depth).Nodes()
		out := binary.BigEndian.AppendUint32(nil, uint32(len(nodes)))
		for _, h := range nodes {
			out = binary.BigEndian.AppendUint64(out, h)
		}
		return statusOK, out
	case opBucket:
		depth := int(d.u8())
		count := int(d.u16())
		if d.err != nil {
			return statusErr, []byte(d.err.Error())
		}
		if depth < 1 || depth > maxMerkleDepth {
			return statusErr, []byte(fmt.Sprintf("server: merkle depth %d outside [1, %d]", depth, maxMerkleDepth))
		}
		if count < 1 || count > 1<<uint(depth) {
			return statusErr, []byte(fmt.Sprintf("server: %d buckets outside depth-%d tree", count, depth))
		}
		buckets := make([]int, count)
		for i := range buckets {
			b := int(d.u32())
			if b < 0 || b >= 1<<uint(depth) {
				return statusErr, []byte(fmt.Sprintf("server: bucket %d outside depth-%d tree", b, depth))
			}
			buckets[i] = b
		}
		if d.err != nil {
			return statusErr, []byte(d.err.Error())
		}
		vs := n.localBucketVersions(depth, buckets)
		out := binary.BigEndian.AppendUint32(nil, uint32(len(vs)))
		for _, v := range vs {
			out = encodeVersion(out, v)
		}
		return statusOK, out
	case opJoin:
		httpAddr := d.string16()
		internalAddr := d.string16()
		if d.err != nil {
			return statusErr, []byte(d.err.Error())
		}
		id, mem, err := n.handleJoinRequest(httpAddr, internalAddr)
		if err != nil {
			return statusErr, []byte(err.Error())
		}
		return statusOK, append(binary.BigEndian.AppendUint32(nil, uint32(id)), mem...)
	case opMembership:
		resp, err := n.handleMembershipExchange(payload)
		if err != nil {
			return statusErr, []byte(err.Error())
		}
		return statusOK, resp
	case opStreamRange:
		req, err := decodeStreamRangeRequest(d)
		if err != nil {
			return statusErr, []byte(err.Error())
		}
		resp, err := n.handleStreamRange(req)
		if err != nil {
			return statusErr, []byte(err.Error())
		}
		return statusOK, resp.encode()
	case opGossip:
		resp, err := n.handleGossip(payload)
		if err != nil {
			return statusErr, []byte(err.Error())
		}
		return statusOK, resp
	case opConfigLog:
		if n.cfglog == nil {
			return statusErr, []byte("server: config log not running")
		}
		resp, err := n.cfglog.HandleRPC(payload)
		if err != nil {
			return statusErr, []byte(err.Error())
		}
		return statusOK, resp
	default:
		return statusErr, []byte(fmt.Sprintf("server: unknown op %d", op))
	}
}

// --- client side (peer pool) -------------------------------------------

// peerConn is one pooled connection with its buffered reader/writer.
type peerConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// peer is the RPC client for one replica's internal endpoint. Data-plane
// ops (Apply, ApplyHinted, GetVersion, Ping) ride a small fixed set of
// multiplexed v2 connections (mux.go); control-plane ops use the v1 pool;
// forwarded client writes ride a binary client connection (ForwardWrite).
type peer struct {
	addr string
	free chan *peerConn

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // every live v1 conn, for Close
	closed bool
	bin    *BinClient // forwarded writes; made on first use

	muxMu     sync.Mutex
	muxes     [muxConnsPerPeer]*muxConn
	muxClosed bool
	muxRR     atomic.Uint32
}

func newPeer(addr string) *peer {
	return &peer{
		addr:  addr,
		free:  make(chan *peerConn, peerPoolSize),
		conns: make(map[net.Conn]struct{}),
	}
}

// muxConnFor returns the live mux connection for this call's round-robin
// slot, dialing (or redialing a dead slot) lazily.
func (p *peer) muxConnFor() (*muxConn, error) {
	slot := int(p.muxRR.Add(1)) % muxConnsPerPeer
	p.muxMu.Lock()
	defer p.muxMu.Unlock()
	if p.muxClosed {
		return nil, errors.New("server: peer closed")
	}
	if mc := p.muxes[slot]; mc != nil && !mc.isDead() {
		return mc, nil
	}
	mc, err := dialMux(p.addr)
	if err != nil {
		return nil, err
	}
	p.muxes[slot] = mc
	return mc, nil
}

// muxRPC performs one multiplexed round trip, returning a pooled response
// payload the caller must putBuf after decoding. enc appends the request
// payload to a pooled buffer (nil sends an empty payload); it may run
// twice: a call that fails on an established connection gets one retry on
// a fresh one — the connection may have idled into a teardown or died
// mid-restart, and every RPC in the protocol is idempotent (the same
// policy as the v1 pool's stale-connection retry). The enqueued buffer is
// owned by the connection's writer loop, so the retry re-encodes rather
// than resends.
func (p *peer) muxRPC(op byte, sizeHint int, enc func([]byte) []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		mc, err := p.muxConnFor()
		if err != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, err
		}
		var payload []byte
		if enc != nil {
			payload = enc(getBuf(sizeHint)[:0])
		}
		status, resp, err := mc.call(op, payload)
		if err != nil {
			lastErr = err
			continue
		}
		if status != statusOK {
			err = fmt.Errorf("server: peer %s: %s", p.addr, resp)
			putBuf(resp)
			return nil, err
		}
		return resp, nil
	}
	return nil, lastErr
}

// get returns a connection, preferring the free list; pooled reports
// whether the connection idled there (and so may have died unnoticed).
func (p *peer) get() (pc *peerConn, pooled bool, err error) {
	select {
	case pc := <-p.free:
		return pc, true, nil
	default:
	}
	pc, err = p.dial()
	return pc, false, err
}

// dial opens a fresh connection and registers it for Close.
func (p *peer) dial() (*peerConn, error) {
	c, err := net.DialTimeout("tcp", p.addr, rpcTimeout)
	if err != nil {
		return nil, err
	}
	pc := &peerConn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return nil, errors.New("server: peer closed")
	}
	p.conns[c] = struct{}{}
	p.mu.Unlock()
	return pc, nil
}

func (p *peer) put(pc *peerConn) {
	select {
	case p.free <- pc:
	default:
		p.retire(pc)
	}
}

// retire closes a connection and forgets it, so the live-conn set stays
// bounded over the node's lifetime.
func (p *peer) retire(pc *peerConn) {
	pc.c.Close()
	p.mu.Lock()
	delete(p.conns, pc.c)
	p.mu.Unlock()
}

// roundTrip performs one request/response exchange on pc, retiring the
// connection on any transport error and returning it to the pool otherwise.
func (p *peer) roundTrip(pc *peerConn, op byte, payload []byte) (status byte, resp []byte, err error) {
	pc.c.SetDeadline(time.Now().Add(rpcTimeout))
	if err := writeFrame(pc.bw, op, payload); err != nil {
		p.retire(pc)
		return 0, nil, err
	}
	status, resp, err = readFrame(pc.br)
	if err != nil {
		p.retire(pc)
		return 0, nil, err
	}
	p.put(pc)
	return status, resp, nil
}

// rpc performs one round trip. A connection that went stale while idling in
// the free list (the peer paused or restarted, an idle timeout fired) only
// reveals itself at our write or first read — without a retry that surfaces
// as a spurious replica failure right after the peer recovered, inflating
// failedOps and triggering needless hints. Every RPC in the protocol is
// idempotent, so one retry on a fresh connection is always safe; failures
// on a freshly dialed connection are real and are not retried.
func (p *peer) rpc(op byte, payload []byte) ([]byte, error) {
	pc, pooled, err := p.get()
	if err != nil {
		return nil, err
	}
	status, resp, err := p.roundTrip(pc, op, payload)
	if err != nil && pooled {
		pc, derr := p.dial()
		if derr != nil {
			return nil, derr
		}
		status, resp, err = p.roundTrip(pc, op, payload)
	}
	if err != nil {
		return nil, err
	}
	if status != statusOK {
		return nil, fmt.Errorf("server: peer %s: %s", p.addr, resp)
	}
	return resp, nil
}

// decodeApply parses an apply answer: applied flag + the peer's current
// seq for the key.
func decodeApply(resp []byte) (applied bool, replicaSeq uint64, err error) {
	d := &decoder{b: resp}
	applied = d.u8() == 1
	replicaSeq = d.u64()
	if d.err != nil {
		return false, 0, d.err
	}
	return applied, replicaSeq, nil
}

// versionSizeHint estimates v's encoded size, for pooled-buffer sizing.
func versionSizeHint(v kvstore.Version) int {
	return 32 + len(v.Key) + len(v.Value)
}

// Apply replicates v to the peer, reporting whether the peer's state
// changed and the peer's resulting seq for the key.
func (p *peer) Apply(v kvstore.Version) (applied bool, replicaSeq uint64, err error) {
	resp, err := p.muxRPC(opApply, versionSizeHint(v), func(b []byte) []byte {
		return encodeVersion(b, v)
	})
	if err != nil {
		return false, 0, err
	}
	applied, replicaSeq, err = decodeApply(resp)
	putBuf(resp)
	return applied, replicaSeq, err
}

// ApplyHinted replicates v to the peer as a sloppy-quorum spare write: the
// peer installs it locally and buffers a hint naming the preference-list
// replica (target) the write was intended for.
func (p *peer) ApplyHinted(v kvstore.Version, target int) (applied bool, replicaSeq uint64, err error) {
	// The wire payload is exactly a hint-log record: one format, one
	// encoder (hintlog.go), decoded by handleRPC and replayHints alike.
	resp, err := p.muxRPC(opApplyHint, 4+versionSizeHint(v), func(b []byte) []byte {
		return appendHintRecord(b, target, v)
	})
	if err != nil {
		return false, 0, err
	}
	applied, replicaSeq, err = decodeApply(resp)
	putBuf(resp)
	return applied, replicaSeq, err
}

// Ping probes the peer's liveness with an empty round trip.
func (p *peer) Ping() error {
	resp, err := p.muxRPC(opPing, 0, nil)
	if err != nil {
		return err
	}
	putBuf(resp)
	return nil
}

// GetVersion reads the peer's current version for key.
func (p *peer) GetVersion(key string) (v kvstore.Version, found bool, err error) {
	resp, err := p.muxRPC(opGet, 2+len(key), func(b []byte) []byte {
		return appendString16(b, key)
	})
	if err != nil {
		return kvstore.Version{}, false, err
	}
	d := &decoder{b: resp}
	found = d.u8() == 1
	v = d.versionForKey(key)
	putBuf(resp)
	if d.err != nil {
		return kvstore.Version{}, false, d.err
	}
	return v, found, nil
}

// ApplyAck is one version's answer inside a batched apply: Apply's
// (applied, replicaSeq) pair.
type ApplyAck struct {
	Applied bool
	Seq     uint64
}

// ApplyBatch replicates many versions to the peer in one round trip (one
// batched coordinator leg), answering per version, index-aligned with
// vers. The answer carries the same per-version information as Apply, so
// the coordinator's stale-epoch refusal (ackable) applies per key.
func (p *peer) ApplyBatch(vers []kvstore.Version) ([]ApplyAck, error) {
	enc := func(b []byte) []byte {
		b = binary.BigEndian.AppendUint16(b, uint16(len(vers)))
		for i := range vers {
			b = encodeVersion(b, vers[i])
		}
		return b
	}
	hint := 2
	for i := range vers {
		hint += versionSizeHint(vers[i])
	}
	resp, err := p.muxRPC(opApplyBatch, hint, enc)
	if err != nil {
		return nil, err
	}
	d := &decoder{b: resp}
	acks := make([]ApplyAck, len(vers))
	for i := range acks {
		acks[i] = ApplyAck{Applied: d.u8() == 1, Seq: d.u64()}
	}
	derr := d.err
	putBuf(resp)
	if derr != nil {
		return nil, derr
	}
	return acks, nil
}

// GetVersionBatch reads the peer's current versions for many keys in one
// round trip, index-aligned with keys.
func (p *peer) GetVersionBatch(keys []string) ([]kvstore.Version, []bool, error) {
	enc := func(b []byte) []byte {
		b = binary.BigEndian.AppendUint16(b, uint16(len(keys)))
		for _, k := range keys {
			b = appendString16(b, k)
		}
		return b
	}
	hint := 2
	for _, k := range keys {
		hint += 2 + len(k)
	}
	resp, err := p.muxRPC(opGetBatch, hint, enc)
	if err != nil {
		return nil, nil, err
	}
	d := &decoder{b: resp}
	vs := make([]kvstore.Version, len(keys))
	found := make([]bool, len(keys))
	for i := range vs {
		found[i] = d.u8() == 1
		vs[i] = d.versionForKey(keys[i])
	}
	derr := d.err
	putBuf(resp)
	if derr != nil {
		return nil, nil, derr
	}
	return vs, found, nil
}

// MerkleNodes fetches the peer's Merkle content summary at the given
// depth.
func (p *peer) MerkleNodes(depth int) ([]uint64, error) {
	resp, err := p.rpc(opTree, []byte{byte(depth)})
	if err != nil {
		return nil, err
	}
	d := &decoder{b: resp}
	count := int(d.u32())
	if d.err != nil || count > len(resp)/8 {
		return nil, errors.New("server: malformed merkle response")
	}
	nodes := make([]uint64, count)
	for i := range nodes {
		nodes[i] = d.u64()
	}
	if d.err != nil {
		return nil, d.err
	}
	return nodes, nil
}

// BucketVersions fetches the versions the peer stores across the given
// Merkle buckets in one batched round trip.
func (p *peer) BucketVersions(depth int, buckets []int) ([]kvstore.Version, error) {
	req := binary.BigEndian.AppendUint16([]byte{byte(depth)}, uint16(len(buckets)))
	for _, b := range buckets {
		req = binary.BigEndian.AppendUint32(req, uint32(b))
	}
	resp, err := p.rpc(opBucket, req)
	if err != nil {
		return nil, err
	}
	d := &decoder{b: resp}
	count := int(d.u32())
	// A version encodes to at least 16 bytes (two length prefixes, seq,
	// clock count), so a count beyond len/16 is corrupt — reject before
	// preallocating.
	if d.err != nil || count > len(resp)/16 {
		return nil, errors.New("server: malformed bucket response")
	}
	vs := make([]kvstore.Version, 0, count)
	for i := 0; i < count; i++ {
		v := d.version()
		if d.err != nil {
			return nil, d.err
		}
		vs = append(vs, v)
	}
	return vs, nil
}

// Join asks the peer (any current cluster member) to admit a new node with
// the given public addresses, returning the assigned member ID and the
// peer's current encoded membership.
func (p *peer) Join(httpAddr, internalAddr string) (id int, membership []byte, err error) {
	req := appendString16(appendString16(nil, httpAddr), internalAddr)
	resp, err := p.rpc(opJoin, req)
	if err != nil {
		return 0, nil, err
	}
	d := &decoder{b: resp}
	id = int(int32(d.u32()))
	if d.err != nil {
		return 0, nil, d.err
	}
	return id, d.b, nil
}

// ExchangeMembership pushes an encoded membership (nil = pull only) and
// returns the peer's current membership encoding.
func (p *peer) ExchangeMembership(push []byte) ([]byte, error) {
	return p.rpc(opMembership, push)
}

// Gossip pushes an encoded gossip message (membership + entry table) and
// returns the peer's own message, so one exchange converges both sides.
func (p *peer) Gossip(push []byte) ([]byte, error) {
	return p.rpc(opGossip, push)
}

// ConfigRPC carries one ring-config consensus message (configlog wire
// format) to the peer's acceptor and returns its reply.
func (p *peer) ConfigRPC(payload []byte) ([]byte, error) {
	return p.rpc(opConfigLog, payload)
}

// StreamRange pulls one page of the peer's versions for the key ranges the
// requester owns under a prospective membership (see handleStreamRange).
func (p *peer) StreamRange(req streamRangeRequest) (streamRangeResponse, error) {
	resp, err := p.rpc(opStreamRange, req.encode())
	if err != nil {
		return streamRangeResponse{}, err
	}
	return decodeStreamRangeResponse(resp)
}

// ForwardWrite hands a client write to the peer as its coordinator. It
// rides a client-protocol connection rather than the peer mux: a forward
// waits on a whole quorum, and the peer mux's server workers also run the
// replica applies that quorum waits on — two nodes forwarding to each
// other over peer connections could fill each other's workers with
// forwards whose legs then queue behind them. On a client connection a
// forward waits only on replica ops, which never wait on another node.
func (p *peer) ForwardWrite(key, value string, tombstone bool, fwdEpoch uint64) (PutResponse, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return PutResponse{}, errors.New("server: peer closed")
	}
	if p.bin == nil {
		p.bin = NewBinClient(p.addr)
	}
	bc := p.bin
	p.mu.Unlock()
	pr, _, err := bc.write(key, value, tombstone, fwdEpoch)
	return pr, err
}

// close tears down every live connection, failing in-flight mux calls.
func (p *peer) close() {
	p.mu.Lock()
	p.closed = true
	conns := p.conns
	p.conns = make(map[net.Conn]struct{})
	bc := p.bin
	p.mu.Unlock()
	for c := range conns {
		c.Close()
	}
	if bc != nil {
		bc.Close()
	}
	p.muxMu.Lock()
	p.muxClosed = true
	muxes := p.muxes
	p.muxes = [muxConnsPerPeer]*muxConn{}
	p.muxMu.Unlock()
	for _, mc := range muxes {
		if mc != nil {
			mc.teardown(errMuxClosed)
		}
	}
}

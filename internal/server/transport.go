package server

// Node-to-node transport, and the dispatch of every connection on a node's
// internal port. A connection opens with one hello in v1 framing
//
//	request:  op(u8)     | len(u32) | payload
//	response: status(u8) | len(u32) | payload (error text when status != 0)
//
// and that hello fixes the connection's role for its lifetime:
//
//   - peer (opPeerHello): everything one node asks of another's replica —
//     the data legs (apply, hinted apply, get and ping) and the control
//     plane (Merkle trees and buckets, join, membership, gossip, the
//     config log, range streaming);
//   - client (opClientHello, clientproto.go): client requests into the
//     coordinator;
//   - forward (opForwardHello): a write one node proxies to the key's
//     coordinator (Section 4.2), tagged with the forwarder's ring epoch.
//
// After the hello every role speaks the tagged, multiplexed framing of
// mux.go, and each role dispatches only its own opcode table: an opcode of
// another role is refused at once (statusErr on a peer connection,
// CodeBadRequest on a client or forward one), and until a hello is
// accepted nothing but a hello is served. HTTP is only the admin surface
// (node.go).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"pbs/internal/kvstore"
)

// Opcodes, one table per role. The hellos are the only v1 frames; each
// carries the protocol version of the role it opens.
const (
	opPeerHello    byte = 12 // peerProtoVersion u8
	opClientHello  byte = 13 // clientProtoVersion u8
	opForwardHello byte = 24 // peerProtoVersion u8

	// Peer role: replica data legs. An apply or get carries a list of 1 to
	// maxBatchOps entries — a count u16, then versions or string16 keys —
	// answered per entry, index-aligned: one coordinator leg is one frame,
	// whether it holds one operation's key or one peer's share of a
	// multi-key batch. A hinted apply is one spare write: a target u32,
	// then one version. 22 and 23 are retired (protocol 3's separate
	// batched legs).
	opApply     byte = 1
	opGet       byte = 2
	opPing      byte = 5
	opApplyHint byte = 6
	// Peer role: control plane. opTree and opBucket serve Merkle
	// anti-entropy; opJoin asks a seed member for an ID assignment and the
	// current membership; opMembership pushes/pulls the versioned
	// membership (ring flips); opStreamRange streams the versions of the
	// key ranges a joining (or catching-up) node owns under a prospective
	// membership; opGossip exchanges heartbeat/epoch tables plus the
	// sender's membership (gossip.go, internal/gossip); opConfigLog carries
	// the ring-config consensus protocol (internal/configlog).
	opTree        byte = 3
	opBucket      byte = 4
	opJoin        byte = 7
	opMembership  byte = 8
	opStreamRange byte = 9
	opGossip      byte = 10
	opConfigLog   byte = 11

	// Client role (clientproto.go has the payload layouts).
	opClientPut    byte = 14
	opClientDelete byte = 15
	opClientGet    byte = 16
	opClientConfig byte = 17
	opClientStats  byte = 18
	opClientWARS   byte = 19
	opClientMPut   byte = 20
	opClientMGet   byte = 21

	// Forward role: fwdEpoch u64 | key string16 | flags u8 | value string32.
	opForwardWrite byte = 25
)

const (
	// peerProtoVersion is the peer and forward hellos' version. It changes
	// with either role's opcode table or payload layouts, so nodes that
	// disagree fail at the hello rather than on their first mismatched op.
	peerProtoVersion byte = 4

	statusOK  byte = 0
	statusErr byte = 1

	// maxFrame bounds a payload so a corrupt length prefix cannot trigger a
	// huge allocation.
	maxFrame = 16 << 20

	// rpcTimeout bounds one internal round trip. Injected WARS delays are
	// served on the coordinator before the RPC starts and after it returns,
	// so this only covers real network plus handler time.
	rpcTimeout = 10 * time.Second
)

// --- wire encoding -----------------------------------------------------

func appendString16[S ~string | ~[]byte](b []byte, s S) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendString32[S ~string | ~[]byte](b []byte, s S) []byte {
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

// bytes16 and bytes32 return a length-prefixed field in place, aliasing the
// frame; string16 and string32 copy it out.
func (d *decoder) bytes16() []byte  { return d.take(int(d.u16())) }
func (d *decoder) bytes32() []byte  { return d.take(int(d.u32())) }
func (d *decoder) string16() string { return string(d.bytes16()) }
func (d *decoder) string32() string { return string(d.bytes32()) }

// legCount reads the entry count of an apply or get, which must lie in
// [1, maxBatchOps].
func (d *decoder) legCount() int {
	count := int(d.u16())
	if d.err == nil && (count == 0 || count > maxBatchOps) {
		d.err = fmt.Errorf("server: leg of %d entries outside [1, %d]", count, maxBatchOps)
	}
	return count
}

// versionFlagTombstone marks a replicated delete in the wire format's
// version flags byte.
const versionFlagTombstone byte = 1 << 0

// encodeVersion appends v in the wire's version layout:
//
//	u16 keyLen | key | u64 seq | u8 flags | u32 valueLen | value |
//	u16 clockLen | (u32 node | u64 ctr)*
//
// Seq alone orders versions, so clockLen is always 0; decoders skip any
// entries, as peers from when versions carried vector clocks sent them.
func encodeVersion(b []byte, v kvstore.Version) []byte {
	return appendVersionTail(appendString16(b, v.Key), v)
}

// appendVersionTail appends everything of v's wire layout after the key.
func appendVersionTail(b []byte, v kvstore.Version) []byte {
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

// appendGetAnswer appends a replica's answer to a get of key: found u8,
// then the version in the wire layout. The key written is the one asked
// for, taken from the request frame — a miss holds the zero version, and
// the coordinator checks the echo (readAnswer).
func appendGetAnswer(b, key []byte, v kvstore.Version, found bool) []byte {
	var f byte
	if found {
		f = 1
	}
	b = growBuf(b, 1+2+len(key)+8+1+4+len(v.Value)+2)
	return appendVersionTail(appendString16(append(b, f), key), v)
}

// readAnswer decodes one replica's get answer (appendGetAnswer) for key.
// The value stays in place, aliasing d's frame: the caller decides who
// owns that memory (readResp.buf). An answer that echoes another key is
// refused, so a value can never be credited to a key it does not belong
// to.
func (d *decoder) readAnswer(key []byte) readResp {
	var r readResp
	r.found = d.u8() == 1
	if echo := d.bytes16(); d.err == nil && !bytes.Equal(echo, key) {
		d.err = errors.New("server: get answer for another key")
	}
	r.seq = d.u64()
	r.tombstone = d.u8()&versionFlagTombstone != 0
	r.value = d.bytes32()
	d.skipClock()
	return r
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

// applyResponse encodes the answer to an apply of key into buf (hot path:
// a pooled scratch; nil allocates): whether local state changed, plus the
// replica's now-current seq for the key. The seq lets a coordinator detect
// that its write was ignored in favor of a *higher-epoch* version — the
// signature of a recovered primary coordinating in a stale epoch — and
// refuse to count the leg toward W (see ackable).
func (n *Node) applyResponse(key string, applied bool, buf []byte) []byte {
	cur, _ := n.getLocal(key)
	out := append(growBuf(buf, 9), 0)
	if applied {
		out[len(out)-1] = 1
	}
	return binary.BigEndian.AppendUint64(out, cur.Seq)
}

// applyScratch is the reusable decode space of one apply.
type applyScratch struct {
	vers    []kvstore.Version
	applied []bool
}

var applyPool = sync.Pool{New: func() any { return new(applyScratch) }}

// release drops the decoded versions (so the pool pins no values) and
// repools the scratch.
func (sc *applyScratch) release() {
	clear(sc.vers)
	sc.vers = sc.vers[:0]
	applyPool.Put(sc)
}

// --- server side -------------------------------------------------------

// role is what a connection's hello fixes: the opcode table that serves
// the connection (handlerFor).
type role uint8

const (
	rolePeer role = iota
	roleClient
	roleForward
)

// hellos maps each role to the hello that opens a connection of it.
var hellos = [...]struct{ op, version byte }{
	rolePeer:    {opPeerHello, peerProtoVersion},
	roleClient:  {opClientHello, clientProtoVersion},
	roleForward: {opForwardHello, peerProtoVersion},
}

const (
	// helloReplyLen is the length of an accepted hello's reply: version u8
	// | node ID u32 | ring epoch u64 — who answered, and how fresh its view
	// is.
	helloReplyLen = 13
	// maxHelloFrame bounds a payload read before a connection's role is
	// fixed.
	maxHelloFrame = 64
)

// helloRole returns the role a v1 frame asks for, or why it is refused.
func helloRole(op byte, payload []byte) (role, error) {
	for r, h := range hellos {
		if op != h.op {
			continue
		}
		if len(payload) != 1 || payload[0] != h.version {
			return 0, fmt.Errorf("server: unsupported protocol version %v in hello %d", payload, op)
		}
		return role(r), nil
	}
	return 0, fmt.Errorf("server: op %d before a hello: only a hello opens a connection", op)
}

// handlerFor returns the opcode table that serves connections of role r.
func (n *Node) handlerFor(r role) func(op byte, payload, buf []byte) (status byte, resp []byte) {
	switch r {
	case roleClient:
		return n.handleClientOp
	case roleForward:
		return n.handleForwardOp
	}
	return n.handlePeerOp
}

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

// serveConn reads v1 frames until one is an accepted hello, then serves
// the role it names for the rest of the connection. Any other frame, or a
// hello for a version this node does not speak, is refused in v1 framing
// and the connection waits for another hello — a client that does not
// speak this node's protocol fails loudly instead of misframing.
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
		// A hello is a few bytes: a connection announcing a bigger frame
		// before its role is fixed is dropped before the payload is read.
		if hdr, err := br.Peek(5); err != nil || binary.BigEndian.Uint32(hdr[1:]) > maxHelloFrame {
			return
		}
		op, payload, err := readFrame(br)
		if err != nil {
			return // peer closed or broken connection
		}
		r, err := helloRole(op, payload)
		if err != nil {
			if err := writeFrame(bw, statusErr, []byte(err.Error())); err != nil {
				return
			}
			continue
		}
		reply := append(make([]byte, 0, helloReplyLen), payload[0])
		reply = binary.BigEndian.AppendUint32(reply, uint32(n.id))
		reply = binary.BigEndian.AppendUint64(reply, n.RingEpoch())
		if err := writeFrame(bw, statusOK, reply); err != nil {
			return
		}
		// Hand the connection — and whatever the buffered reader already
		// holds — to the multiplexed serve loop.
		n.serveMux(conn, br, r)
		return
	}
}

// handlePeerOp is the peer role's opcode table: one request against local
// replica state, with a caller-provided response scratch (hot-path ops
// append their response to it, growing it through growBuf; cold ops
// ignore it). Crashed replicas refuse every request: fault injection
// interposes on the sender side (peers.go), and this server-side check
// keeps the crash airtight for callers that reach the TCP endpoint
// directly. A closed node refuses too: Close cuts its connections, and
// this check does the same for the legs its own coordinator serves in
// process (peer.local).
func (n *Node) handlePeerOp(op byte, payload, buf []byte) (status byte, resp []byte) {
	if n.closed.Load() {
		return statusErr, []byte("server: node closed")
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
		// The whole list goes to the engine at once, so a durable replica
		// makes it durable with one group commit rather than one per version.
		count := d.legCount()
		if d.err != nil {
			return statusErr, []byte(d.err.Error())
		}
		sc := applyPool.Get().(*applyScratch)
		defer sc.release()
		for i := 0; i < count && d.err == nil; i++ {
			sc.vers = append(sc.vers, d.version())
		}
		if d.err != nil {
			return statusErr, []byte(d.err.Error())
		}
		sc.applied = slices.Grow(sc.applied[:0], count)[:count]
		n.store.ApplyBatch(sc.vers, n.nowMs(), sc.applied)
		out := buf
		for i, v := range sc.vers {
			out = n.applyResponse(v.Key, sc.applied[i], out)
		}
		return statusOK, out
	case opPing:
		// Liveness probe: reaching this point proves the replica is up
		// (crashed replicas were already refused above).
		return statusOK, append(buf, 1)
	case opApplyHint:
		// A sloppy-quorum spare write: install the version locally and
		// remember which preference-list replica it was intended for, so
		// this node's handoff replayer delivers it once the target
		// recovers (Dynamo Section 4.6). The engine makes the hint and the
		// version durable together before the spare answers.
		target := int(int32(d.u32()))
		v := d.version()
		if d.err != nil {
			return statusErr, []byte(d.err.Error())
		}
		if mv := n.view(); mv == nil || !mv.m.Contains(target) {
			return statusErr, []byte(fmt.Sprintf("server: hint target %d is not a cluster member", target))
		}
		var applied bool
		if n.params.Handoff {
			applied = n.store.ApplyHinted(target, v, n.nowMs())
		} else {
			applied = n.applyLocal(v)
		}
		return statusOK, n.applyResponse(v.Key, applied, buf)
	case opGet:
		// Each key is looked up straight from the request frame: no copy.
		count := d.legCount()
		out := buf
		for i := 0; i < count && d.err == nil; i++ {
			key := d.bytes16()
			if d.err == nil {
				v, found := n.store.GetBytes(key)
				out = appendGetAnswer(out, key, v, found)
			}
		}
		if d.err != nil {
			return statusErr, []byte(d.err.Error())
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
		return statusErr, []byte(fmt.Sprintf("server: op %d is not a peer op", op))
	}
}

// --- client side -------------------------------------------------------

// peer is the RPC client for one replica's internal endpoint: legs and
// control messages ride its peer-role connections (muxRPC), forwarded
// writes its forward-role connections (ForwardWrite).
type peer struct {
	legs connSlots
	fwd  connSlots
	// local is set only on the peer a node builds for itself (mkPeer): its
	// own opcode table, which serves the coordinator's own replica legs
	// (legOp) in process — encoded, served and decoded as over the wire,
	// without the socket round trip to itself.
	local func(op byte, payload, buf []byte) (status byte, resp []byte)
}

func newPeer(addr string) *peer {
	return &peer{
		legs: connSlots{addr: addr, role: rolePeer},
		fwd:  connSlots{addr: addr, role: roleForward},
	}
}

// muxRPC performs one peer-role round trip, returning a pooled response
// payload the caller must putBuf after decoding. enc appends the request
// payload to a pooled buffer (nil sends an empty payload); it may run
// twice: a call that fails on an established connection gets one retry on
// a fresh one — the connection may have idled into a teardown or died
// mid-restart without the reader noticing yet, and every peer op is
// idempotent. A failed dial is not retried: that failure is real. The
// enqueued buffer is owned by the connection's writer loop, so the retry
// re-encodes rather than resends. On a node's own peer, data legs skip the
// connection and are served in process (localRPC).
func (p *peer) muxRPC(op byte, sizeHint int, enc func([]byte) []byte) ([]byte, error) {
	if p.local != nil && legOp(op) {
		return p.localRPC(op, sizeHint, enc)
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		mc, err := p.legs.conn()
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
			err = fmt.Errorf("server: peer %s: %s", p.legs.addr, resp)
			putBuf(resp)
			return nil, err
		}
		return resp, nil
	}
	return nil, lastErr
}

// legInline says when a peer connection's reader serves a data leg itself
// instead of on the worker pool (serveMux): a get or a ping never blocks on
// storage; an apply blocks only on a durable engine, whose WAL group commit
// wants many concurrent appliers per batch; a hinted apply commits its hint.
type legInline uint8

const (
	inlineNever legInline = iota + 1
	inlineInMem
	inlineAlways
)

// legOps is the one table of replica data legs: ops that only read or
// write local replica state, never wait on another node or on a lock their
// caller may hold, and so may be served in the caller's goroutine. The
// control plane (Merkle, join, membership, gossip, the config log, range
// streaming) is not in it.
var legOps = [256]legInline{
	opApply:     inlineInMem,
	opApplyHint: inlineNever,
	opGet:       inlineAlways,
	opPing:      inlineAlways,
}

// legOp reports whether op is a replica data leg.
func legOp(op byte) bool { return legOps[op] != 0 }

// inlineLeg reports whether a peer connection's reader serves op itself on
// a node whose engine is durable or not.
func inlineLeg(op byte, durable bool) bool {
	return legOps[op] == inlineAlways || (legOps[op] == inlineInMem && !durable)
}

// localRPC is muxRPC for a node's own replica leg: the request is encoded
// into a pooled buffer, served by the local opcode table into another, and
// returned for the caller's usual decode and putBuf.
func (p *peer) localRPC(op byte, sizeHint int, enc func([]byte) []byte) ([]byte, error) {
	var payload []byte
	if enc != nil {
		payload = enc(getBuf(sizeHint)[:0])
	}
	buf := getBuf(64)
	status, resp := p.local(op, payload, buf[:0])
	putBuf(payload)
	if status != statusOK {
		err := fmt.Errorf("server: peer %s: %s", p.legs.addr, resp)
		putBuf(answerBuf(buf, resp))
		return nil, err
	}
	return resp, nil
}

// ctrlRPC is muxRPC for the control plane: payload is copied into the
// request (the caller keeps its slice; the writer loop repools what it
// sends), and the response is the caller's to keep — it is never repooled.
func (p *peer) ctrlRPC(op byte, payload []byte) ([]byte, error) {
	return p.muxRPC(op, len(payload), func(b []byte) []byte { return append(b, payload...) })
}

// versionSizeHint estimates v's encoded size, for pooled-buffer sizing.
func versionSizeHint(v kvstore.Version) int {
	return 32 + len(v.Key) + len(v.Value)
}

// applyAck is one version's answer to an apply: whether the replica's
// state changed, and its resulting seq for the key — at least the
// version's own when the replica ignored it as a stale duplicate (ackable
// reads the seq's epoch).
type applyAck struct {
	applied bool
	seq     uint64
}

func (d *decoder) applyAck() applyAck {
	return applyAck{applied: d.u8() == 1, seq: d.u64()}
}

// appendApply appends an opApply payload: the count, then each version.
func appendApply(b []byte, vers []kvstore.Version) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(vers)))
	for i := range vers {
		b = encodeVersion(b, vers[i])
	}
	return b
}

// Apply replicates vers (1 to maxBatchOps versions) to the peer in one
// round trip, answering into acks, index-aligned (len(acks) >= len(vers)).
func (p *peer) Apply(vers []kvstore.Version, acks []applyAck) error {
	hint := 2
	for i := range vers {
		hint += versionSizeHint(vers[i])
	}
	resp, err := p.muxRPC(opApply, hint, func(b []byte) []byte { return appendApply(b, vers) })
	if err != nil {
		return err
	}
	d := &decoder{b: resp}
	for i := range vers {
		acks[i] = d.applyAck()
	}
	putBuf(resp)
	return d.err
}

// ApplyHinted replicates v to the peer as a sloppy-quorum spare write: the
// peer installs it locally and buffers a hint naming the preference-list
// replica (target) the write was intended for.
func (p *peer) ApplyHinted(v kvstore.Version, target int) (applyAck, error) {
	resp, err := p.muxRPC(opApplyHint, 4+versionSizeHint(v), func(b []byte) []byte {
		return appendHintedApply(b, target, v)
	})
	if err != nil {
		return applyAck{}, err
	}
	d := &decoder{b: resp}
	ack := d.applyAck()
	putBuf(resp)
	return ack, d.err
}

// appendHintedApply appends an opApplyHint payload: the target replica
// (u32) the spare write stands in for, then the version.
func appendHintedApply(b []byte, target int, v kvstore.Version) []byte {
	return encodeVersion(binary.BigEndian.AppendUint32(b, uint32(target)), v)
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

// appendGet appends an opGet payload: the count, then each key.
func appendGet(b []byte, keys [][]byte) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(keys)))
	for _, k := range keys {
		b = appendString16(b, k)
	}
	return b
}

// Get reads the peer's current versions for keys (1 to maxBatchOps) in one
// round trip into out, index-aligned (len(out) >= len(keys)); on error out
// holds nothing. Each answer owns the pooled buffer its value aliases: a
// one-key answer keeps the frame it arrived in, while the answers to a
// longer list, which share one frame, each get a pooled copy of their
// value.
func (p *peer) Get(keys [][]byte, out []readResp) error {
	hint := 2
	for _, k := range keys {
		hint += 2 + len(k)
	}
	resp, err := p.muxRPC(opGet, hint, func(b []byte) []byte { return appendGet(b, keys) })
	if err != nil {
		return err
	}
	d := &decoder{b: resp}
	for i, k := range keys {
		out[i] = d.readAnswer(k)
	}
	switch {
	case d.err != nil:
		clear(out[:len(keys)])
	case len(keys) == 1:
		out[0].buf = resp
		return nil
	default:
		for i := range keys {
			out[i].buf = append(getBuf(len(out[i].value))[:0], out[i].value...)
			out[i].value = out[i].buf
		}
	}
	putBuf(resp)
	return d.err
}

// MerkleNodes fetches the peer's Merkle content summary at the given
// depth.
func (p *peer) MerkleNodes(depth int) ([]uint64, error) {
	resp, err := p.ctrlRPC(opTree, []byte{byte(depth)})
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
	resp, err := p.ctrlRPC(opBucket, req)
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
	resp, err := p.ctrlRPC(opJoin, req)
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
	return p.ctrlRPC(opMembership, push)
}

// Gossip pushes an encoded gossip message (membership + entry table) and
// returns the peer's own message, so one exchange converges both sides.
func (p *peer) Gossip(push []byte) ([]byte, error) {
	return p.ctrlRPC(opGossip, push)
}

// ConfigRPC carries one ring-config consensus message (configlog wire
// format) to the peer's acceptor and returns its reply.
func (p *peer) ConfigRPC(payload []byte) ([]byte, error) {
	return p.ctrlRPC(opConfigLog, payload)
}

// StreamRange pulls one page of the peer's versions for the key ranges the
// requester owns under a prospective membership (see handleStreamRange).
// Pages are bounded by streamPageBytes, well under maxFrame.
func (p *peer) StreamRange(req streamRangeRequest) (streamRangeResponse, error) {
	resp, err := p.ctrlRPC(opStreamRange, req.encode())
	if err != nil {
		return streamRangeResponse{}, err
	}
	return decodeStreamRangeResponse(resp)
}

// ForwardWrite hands a client write to the peer as its coordinator, over a
// forward-role connection rather than the peer role's: a forward waits on
// a whole quorum, and a peer connection's server workers also run the
// replica applies that quorum waits on — two nodes forwarding to each
// other over peer connections could fill each other's workers with
// forwards whose legs then queue behind them. Worker pools are per
// connection (serveMux), so forwards wait only on replica legs, which
// never wait on another node. A failed forward is not retried: unlike a
// replica leg, a repeated write is a second version.
func (p *peer) ForwardWrite(key, value string, tombstone bool, fwdEpoch uint64) (PutResponse, error) {
	pr, _, err := putAnswer(p.fwd.call(opForwardWrite, 15+len(key)+len(value), func(b []byte) []byte {
		return appendForwardWrite(b, key, value, tombstone, fwdEpoch)
	}))
	return pr, err
}

// close tears down every live connection, failing in-flight calls.
func (p *peer) close() {
	p.legs.close()
	p.fwd.close()
}

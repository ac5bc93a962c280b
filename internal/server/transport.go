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
//     the data legs (apply, hinted apply, get, ping and their batched
//     forms) and the control plane (Merkle trees and buckets, join,
//     membership, gossip, the config log, range streaming);
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
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"pbs/internal/kvstore"
)

// Opcodes, one table per role. The hellos are the only v1 frames; each
// carries the protocol version of the role it opens.
const (
	opPeerHello    byte = 12 // peerProtoVersion u8
	opClientHello  byte = 13 // clientProtoVersion u8
	opForwardHello byte = 24 // peerProtoVersion u8

	// Peer role: replica data legs.
	opApply     byte = 1
	opGet       byte = 2
	opPing      byte = 5
	opApplyHint byte = 6
	// Batched legs: one frame carries one coordinator's whole share of a
	// multi-key batch for one peer — a length-prefixed version list for
	// opApplyBatch, a key list for opGetBatch — answered per entry,
	// index-aligned.
	opApplyBatch byte = 22
	opGetBatch   byte = 23
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
	peerProtoVersion byte = 3

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

// encodeVersion appends v in the wire's version layout:
//
//	u16 keyLen | key | u64 seq | u8 flags | u32 valueLen | value |
//	u16 clockLen | (u32 node | u64 ctr)*
//
// Seq alone orders versions, so clockLen is always 0; decoders skip any
// entries, as peers from when versions carried vector clocks sent them.
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

// applyResponse encodes the answer to an apply of key into buf (hot path:
// a pooled scratch; nil allocates): whether local state changed, plus the
// replica's now-current seq for the key. The seq lets a coordinator detect
// that its write was ignored in favor of a *higher-epoch* version — the
// signature of a recovered primary coordinating in a stale epoch — and
// refuse to count the leg toward W (see deliverWrite).
func (n *Node) applyResponse(key string, applied bool, buf []byte) []byte {
	cur, _ := n.getLocal(key)
	out := append(buf, 0)
	if applied {
		out[len(out)-1] = 1
	}
	return binary.BigEndian.AppendUint64(out, cur.Seq)
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
// append their response to it, cold ops ignore it). Crashed replicas
// refuse every request: fault injection interposes on the sender side
// (peers.go), and this server-side check keeps the crash airtight for
// callers that reach the TCP endpoint directly.
func (n *Node) handlePeerOp(op byte, payload, buf []byte) (status byte, resp []byte) {
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
		return statusOK, n.applyResponse(v.Key, n.applyLocal(v), buf)
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
			out = n.applyResponse(v.Key, n.applyLocal(v), out)
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
// re-encodes rather than resends.
func (p *peer) muxRPC(op byte, sizeHint int, enc func([]byte) []byte) ([]byte, error) {
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

// ctrlRPC is muxRPC for the control plane: payload is copied into the
// request (the caller keeps its slice; the writer loop repools what it
// sends), and the response is the caller's to keep — it is never repooled.
func (p *peer) ctrlRPC(op byte, payload []byte) ([]byte, error) {
	return p.muxRPC(op, len(payload), func(b []byte) []byte { return append(b, payload...) })
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
	resp, err := p.muxRPC(opApplyHint, 4+versionSizeHint(v), func(b []byte) []byte {
		return appendHintedApply(b, target, v)
	})
	if err != nil {
		return false, 0, err
	}
	applied, replicaSeq, err = decodeApply(resp)
	putBuf(resp)
	return applied, replicaSeq, err
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

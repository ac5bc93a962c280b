package server

// Binary client protocol: the tagged-frame v2 mux transport extended from
// peer-to-peer to client-to-server. A client opens a TCP connection to a
// node's internal address, sends a v1 opClientHello frame carrying the
// protocol version it speaks, and — on an accepting reply — the connection
// upgrades to tagged framing (tag|id|len|payload) with pipelined
// PUT/GET/DELETE/config/stats/WARS requests multiplexed over it, exactly
// the machinery peers use (mux.go). Server-side, client ops dispatch into
// the same coordinator entry points the HTTP handlers call (routeWriteOp,
// coordinateGetOp, configLocal, statsLocal), so both front ends share one
// code path and one set of quorum semantics.
//
// Every response payload is prefixed with the responding node's ring epoch
// (the binary analogue of the X-Pbs-Ring-Epoch header): clients compare it
// against their cached view and re-fetch membership on a bump. Error
// responses carry a one-byte code so clients can distinguish retryable
// routing-level unavailability (CodeUnavailable — the 502/503 analogue)
// from final quorum verdicts (CodeQuorumFailed — "quorum not reached" is
// an answer, not an outage) and malformed requests (CodeBadRequest).

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clientProtoVersion is negotiated by opClientHello; the server refuses
// versions it does not speak and the connection stays v1, so a newer
// client degrades loudly rather than misframing.
const clientProtoVersion = 1

// Client-facing ops live above the peer op range (opMuxHello = 12).
const (
	opClientHello  = 13 // v1 frame: upgrade this connection to the client protocol
	opClientPut    = 14 // key string16 | value string32
	opClientDelete = 15 // key string16
	opClientGet    = 16 // key string16
	opClientConfig = 17 // empty
	opClientStats  = 18 // empty
	opClientWARS   = 19 // empty
	// Batched ops: one frame carries a length-prefixed op list; the
	// response carries one typed verdict per entry, index-aligned, so one
	// key's failure never fails its batch (clientproto batch codecs below;
	// coordination in batch.go).
	opClientMPut = 20 // count u16 | (key string16 | flags u8 | value string32)*
	opClientMGet = 21 // count u16 | (key string16)*
)

// batchFlagTombstone marks a delete inside an opClientMPut op list.
const batchFlagTombstone byte = 1 << 0

// Client response statuses, disjoint from the peer statuses (statusOK = 0,
// statusErr = 1) so a stream fuzzer — and a misdirected peer — can tell
// the two response families apart.
const (
	statusClientOK  = 2 // payload: epoch u64 | op-specific body
	statusClientErr = 3 // payload: epoch u64 | code u8 | message
)

// Error codes carried on statusClientErr frames.
const (
	CodeBadRequest   = 1 // malformed or oversized request; final
	CodeUnavailable  = 2 // routing-level unavailability; retry elsewhere
	CodeQuorumFailed = 3 // quorum verdict from a live coordinator; final
	CodeInternal     = 4 // server bug (forwarding loop etc.); final
)

// ClientError is a decoded statusClientErr frame.
type ClientError struct {
	Code byte
	Msg  string
}

func (e *ClientError) Error() string { return e.Msg }

// Retryable reports whether another node might answer differently — the
// binary analogue of the HTTP client's 502/503-minus-quorum-verdict rule.
func (e *ClientError) Retryable() bool { return e.Code == CodeUnavailable }

// --- wire codecs ----------------------------------------------------------

func appendClientError(b []byte, epoch uint64, code byte, msg string) []byte {
	b = binary.BigEndian.AppendUint64(b, epoch)
	b = append(b, code)
	return append(b, msg...)
}

func decodeClientError(pl []byte) (epoch uint64, cerr *ClientError, err error) {
	if len(pl) < 9 {
		return 0, nil, errors.New("server: malformed client error frame")
	}
	return binary.BigEndian.Uint64(pl), &ClientError{Code: pl[8], Msg: string(pl[9:])}, nil
}

func appendClientPutResponse(b []byte, epoch uint64, pr PutResponse) []byte {
	b = binary.BigEndian.AppendUint64(b, epoch)
	b = binary.BigEndian.AppendUint64(b, pr.Seq)
	b = binary.BigEndian.AppendUint64(b, uint64(pr.CommittedUnixNano))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(pr.CoordMs))
	return binary.BigEndian.AppendUint32(b, uint32(pr.Node))
}

// decodeClientPutBody decodes the op-specific body of a put/delete
// response (the epoch prefix already stripped by decodeClientFrame).
func decodeClientPutBody(body []byte) (PutResponse, error) {
	d := &decoder{b: body}
	pr := PutResponse{
		Seq:               d.u64(),
		CommittedUnixNano: int64(d.u64()),
		CoordMs:           math.Float64frombits(d.u64()),
		Node:              int(int32(d.u32())),
	}
	if d.err != nil {
		return PutResponse{}, fmt.Errorf("server: malformed put response: %w", d.err)
	}
	return pr, nil
}

const clientGetFlagFound = 1

func appendClientGetResponse(b []byte, epoch uint64, gr GetResponse) []byte {
	b = binary.BigEndian.AppendUint64(b, epoch)
	var flags byte
	if gr.Found {
		flags |= clientGetFlagFound
	}
	b = append(b, flags)
	b = binary.BigEndian.AppendUint64(b, gr.Seq)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(gr.CoordMs))
	b = binary.BigEndian.AppendUint32(b, uint32(gr.Node))
	return appendString32(b, gr.Value)
}

func decodeClientGetBody(body []byte) (GetResponse, error) {
	d := &decoder{b: body}
	flags := d.u8()
	gr := GetResponse{
		Found:   flags&clientGetFlagFound != 0,
		Seq:     d.u64(),
		CoordMs: math.Float64frombits(d.u64()),
		Node:    int(int32(d.u32())),
	}
	gr.Value = d.string32()
	if d.err != nil {
		return GetResponse{}, fmt.Errorf("server: malformed get response: %w", d.err)
	}
	return gr, nil
}

// --- batch codecs ---------------------------------------------------------

// A batch response body is `count u16` followed by one entry per request
// op, index-aligned: `verdict u8 | entry-body`. Verdict 0 is success and
// the entry body is exactly the single-op response body; a nonzero
// verdict is the entry's client error code and the body is `msg string16`.

// BatchPutResult is one op's outcome inside a batched write: exactly one
// of Resp and Err is meaningful (Err nil on success).
type BatchPutResult struct {
	Resp PutResponse
	Err  *ClientError
}

// BatchGetResult is one key's outcome inside a batched read.
type BatchGetResult struct {
	Resp GetResponse
	Err  *ClientError
}

func appendClientMPutResponse(b []byte, epoch uint64, outs []batchPutOut) []byte {
	b = binary.BigEndian.AppendUint64(b, epoch)
	b = binary.BigEndian.AppendUint16(b, uint16(len(outs)))
	for i := range outs {
		if oe := outs[i].oe; oe != nil {
			b = append(b, oe.code)
			b = appendString16(b, oe.msg)
			continue
		}
		pr := outs[i].pr
		b = append(b, 0)
		b = binary.BigEndian.AppendUint64(b, pr.Seq)
		b = binary.BigEndian.AppendUint64(b, uint64(pr.CommittedUnixNano))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(pr.CoordMs))
		b = binary.BigEndian.AppendUint32(b, uint32(pr.Node))
	}
	return b
}

func decodeClientMPutBody(body []byte) ([]BatchPutResult, error) {
	d := &decoder{b: body}
	count := int(d.u16())
	if d.err != nil || count > maxBatchOps {
		return nil, errors.New("server: malformed batch put response")
	}
	outs := make([]BatchPutResult, count)
	for i := range outs {
		verdict := d.u8()
		if verdict == 0 {
			outs[i].Resp = PutResponse{
				Seq:               d.u64(),
				CommittedUnixNano: int64(d.u64()),
				CoordMs:           math.Float64frombits(d.u64()),
				Node:              int(int32(d.u32())),
			}
		} else {
			outs[i].Err = &ClientError{Code: verdict, Msg: d.string16()}
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("server: malformed batch put response: %w", d.err)
	}
	return outs, nil
}

func appendClientMGetResponse(b []byte, epoch uint64, outs []batchGetOut) []byte {
	b = binary.BigEndian.AppendUint64(b, epoch)
	b = binary.BigEndian.AppendUint16(b, uint16(len(outs)))
	for i := range outs {
		if oe := outs[i].oe; oe != nil {
			b = append(b, oe.code)
			b = appendString16(b, oe.msg)
			continue
		}
		gr := outs[i].gr
		b = append(b, 0)
		var flags byte
		if gr.Found {
			flags |= clientGetFlagFound
		}
		b = append(b, flags)
		b = binary.BigEndian.AppendUint64(b, gr.Seq)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(gr.CoordMs))
		b = binary.BigEndian.AppendUint32(b, uint32(gr.Node))
		b = appendString32(b, gr.Value)
	}
	return b
}

func decodeClientMGetBody(body []byte) ([]BatchGetResult, error) {
	d := &decoder{b: body}
	count := int(d.u16())
	if d.err != nil || count > maxBatchOps {
		return nil, errors.New("server: malformed batch get response")
	}
	outs := make([]BatchGetResult, count)
	for i := range outs {
		verdict := d.u8()
		if verdict == 0 {
			flags := d.u8()
			outs[i].Resp = GetResponse{
				Found:   flags&clientGetFlagFound != 0,
				Seq:     d.u64(),
				CoordMs: math.Float64frombits(d.u64()),
				Node:    int(int32(d.u32())),
			}
			outs[i].Resp.Value = d.string32()
		} else {
			outs[i].Err = &ClientError{Code: verdict, Msg: d.string16()}
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("server: malformed batch get response: %w", d.err)
	}
	return outs, nil
}

// decodeBatchPutOps parses an opClientMPut payload. Frame-level failures
// (bad count, truncation) reject the whole batch; per-op semantic
// problems (empty key, oversized value) become per-op verdicts in
// coordinateMPut so the rest of the batch proceeds.
func decodeBatchPutOps(d *decoder) ([]BatchPutOp, *opError) {
	count := int(d.u16())
	if d.err != nil || count == 0 || count > maxBatchOps {
		return nil, errBadRequest("server: malformed batch request")
	}
	ops := make([]BatchPutOp, count)
	for i := range ops {
		ops[i].Key = d.string16()
		ops[i].Tombstone = d.u8()&batchFlagTombstone != 0
		ops[i].Value = d.string32()
	}
	if d.err != nil {
		return nil, errBadRequest("server: malformed batch request")
	}
	return ops, nil
}

func decodeBatchKeys(d *decoder) ([]string, *opError) {
	count := int(d.u16())
	if d.err != nil || count == 0 || count > maxBatchOps {
		return nil, errBadRequest("server: malformed batch request")
	}
	keys := make([]string, count)
	for i := range keys {
		keys[i] = d.string16()
	}
	if d.err != nil {
		return nil, errBadRequest("server: malformed batch request")
	}
	return keys, nil
}

// decodeClientFrame splits a client response into its ring-epoch prefix
// and op-specific body. A statusClientErr frame comes back as a
// *ClientError; any other status (a v1 statusErr from a server that does
// not speak the client protocol) is a plain error.
func decodeClientFrame(status byte, resp []byte) (epoch uint64, body []byte, err error) {
	switch status {
	case statusClientOK:
		if len(resp) < 8 {
			return 0, nil, errors.New("server: malformed client response frame")
		}
		return binary.BigEndian.Uint64(resp), resp[8:], nil
	case statusClientErr:
		epoch, cerr, err := decodeClientError(resp)
		if err != nil {
			return 0, nil, err
		}
		return epoch, nil, cerr
	default:
		return 0, nil, fmt.Errorf("server: client call failed: %s", resp)
	}
}

// --- server dispatch ------------------------------------------------------

func clientOp(op byte) bool { return op >= opClientPut && op <= opClientMGet }

// handleClientOp serves one client-protocol request. It runs on the mux
// worker pool (client ops block on quorums, so they never run inline in
// the reader loop) and routes into the same coordinator entry points the
// HTTP handlers use. buf is the pooled response scratch from serveMux.
func (n *Node) handleClientOp(op byte, payload, buf []byte) (byte, []byte) {
	epoch := n.RingEpoch()
	fail := func(oe *opError) (byte, []byte) {
		return statusClientErr, appendClientError(buf[:0], epoch, oe.code, oe.msg)
	}
	// A crashed or partitioned replica refuses client traffic just as the
	// HTTP front end does (503), but as a typed retryable frame.
	if n.faults.Down(n.id) {
		return fail(errUnavailable(ErrReplicaDown.Error()))
	}
	if n.faults.Partitioned(n.id) {
		return fail(errUnavailable(ErrPartitioned.Error()))
	}
	d := &decoder{b: payload}
	switch op {
	case opClientPut, opClientDelete:
		tombstone := op == opClientDelete
		key := d.string16()
		var value string
		if !tombstone {
			value = d.string32()
		}
		if d.err != nil || key == "" {
			return fail(errBadRequest("server: malformed client request"))
		}
		if len(value) > maxValueBytes {
			return fail(&opError{status: http.StatusRequestEntityTooLarge, code: CodeBadRequest, msg: "server: value exceeds 1 MiB"})
		}
		pr, oe := n.routeWriteOp(key, value, tombstone, 0)
		if oe != nil {
			return fail(oe)
		}
		return statusClientOK, appendClientPutResponse(buf[:0], epoch, pr)
	case opClientGet:
		key := d.string16()
		if d.err != nil || key == "" {
			return fail(errBadRequest("server: malformed client request"))
		}
		gr, oe := n.coordinateGetOp(key)
		if oe != nil {
			return fail(oe)
		}
		return statusClientOK, appendClientGetResponse(buf[:0], epoch, gr)
	case opClientMPut:
		ops, oe := decodeBatchPutOps(d)
		if oe != nil {
			return fail(oe)
		}
		return statusClientOK, appendClientMPutResponse(buf[:0], epoch, n.coordinateMPut(ops))
	case opClientMGet:
		keys, oe := decodeBatchKeys(d)
		if oe != nil {
			return fail(oe)
		}
		return statusClientOK, appendClientMGetResponse(buf[:0], epoch, n.coordinateMGet(keys))
	case opClientConfig:
		cfg, oe := n.configLocal()
		if oe != nil {
			return fail(oe)
		}
		return clientJSON(epoch, buf, cfg)
	case opClientStats:
		return clientJSON(epoch, buf, n.statsLocal())
	case opClientWARS:
		return clientJSON(epoch, buf, n.legs.snapshot(n.id))
	default:
		return fail(errBadRequest(fmt.Sprintf("server: unknown client op %d", op)))
	}
}

// clientJSON answers a cold-path client op (config/stats/WARS) with an
// epoch-prefixed JSON body — these are off the hot path, so reflection
// cost is fine and the response types stay shared with the HTTP API.
func clientJSON(epoch uint64, buf []byte, v any) (byte, []byte) {
	enc, err := json.Marshal(v)
	if err != nil {
		return statusClientErr, appendClientError(buf[:0], epoch, CodeInternal, "server: encode response: "+err.Error())
	}
	b := binary.BigEndian.AppendUint64(buf[:0], epoch)
	return statusClientOK, append(b, enc...)
}

// --- client connection ----------------------------------------------------

// binConnsPerNode mirrors muxConnsPerPeer: two pipelined connections per
// node spread head-of-line blocking without multiplying idle sockets.
const binConnsPerNode = 2

// BinClient is one node's end of the binary client protocol: a small pool
// of upgraded connections with transparent redial. Calls pipeline —
// many goroutines share one connection and the mux reader matches
// responses by tag. A dead connection fails its in-flight calls exactly
// once (mux teardown semantics); BinClient deliberately does NOT retry a
// failed call — retry policy belongs to the ring-walking client above it.
type BinClient struct {
	addr string
	rr   atomic.Uint32

	mu     sync.Mutex
	conns  [binConnsPerNode]*muxConn
	closed bool
}

// NewBinClient prepares a client for the node at addr (internal TCP
// address, not the HTTP one). Connections are dialed lazily.
func NewBinClient(addr string) *BinClient {
	return &BinClient{addr: addr}
}

func (bc *BinClient) conn() (*muxConn, error) {
	slot := int(bc.rr.Add(1)) % binConnsPerNode
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if bc.closed {
		return nil, errMuxClosed
	}
	if mc := bc.conns[slot]; mc != nil && !mc.isDead() {
		return mc, nil
	}
	mc, err := dialBinConn(bc.addr)
	if err != nil {
		return nil, err
	}
	bc.conns[slot] = mc
	return mc, nil
}

// dialBinConn opens a connection and upgrades it to the client protocol:
// dialMux's shape, with the hello carrying the client protocol version
// and the reply echoing {version, node ID, current ring epoch}.
func dialBinConn(addr string) (*muxConn, error) {
	c, err := net.DialTimeout("tcp", addr, rpcTimeout)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(c, muxIOBuf)
	br := bufio.NewReaderSize(c, muxIOBuf)
	c.SetDeadline(time.Now().Add(rpcTimeout))
	if err := writeFrame(bw, opClientHello, []byte{clientProtoVersion}); err != nil {
		c.Close()
		return nil, err
	}
	status, resp, err := readFrame(br)
	if err != nil {
		c.Close()
		return nil, err
	}
	if status != statusOK {
		c.Close()
		return nil, fmt.Errorf("server: client hello refused: %s", resp)
	}
	if len(resp) != 13 || resp[0] != clientProtoVersion {
		c.Close()
		return nil, errors.New("server: malformed client hello reply")
	}
	c.SetDeadline(time.Time{})
	mc := &muxConn{
		c:       c,
		wch:     make(chan muxWrite, muxServerQueue),
		done:    make(chan struct{}),
		pending: make(map[uint64]*muxCall),
	}
	go mc.writeLoop(bw)
	go mc.readLoop(br)
	return mc, nil
}

// do runs one pipelined call: encode the request into a pooled buffer
// (ownership passes to the connection's writer loop) and wait for the
// tagged response. The response payload is pooled; callers must putBuf it
// after decoding.
func (bc *BinClient) do(op byte, sizeHint int, enc func(b []byte) []byte) (byte, []byte, error) {
	mc, err := bc.conn()
	if err != nil {
		return 0, nil, err
	}
	return mc.call(op, enc(getBuf(sizeHint)[:0]))
}

// Put writes key=value through the node's coordinator. The returned epoch
// is the node's ring epoch at response time (0 only on transport errors).
func (bc *BinClient) Put(key, value string) (PutResponse, uint64, error) {
	st, resp, err := bc.do(opClientPut, 2+len(key)+4+len(value), func(b []byte) []byte {
		return appendString32(appendString16(b, key), value)
	})
	if err != nil {
		return PutResponse{}, 0, err
	}
	defer putBuf(resp)
	epoch, body, err := decodeClientFrame(st, resp)
	if err != nil {
		return PutResponse{}, epoch, err
	}
	pr, err := decodeClientPutBody(body)
	return pr, epoch, err
}

// Delete writes a tombstone for key.
func (bc *BinClient) Delete(key string) (PutResponse, uint64, error) {
	st, resp, err := bc.do(opClientDelete, 2+len(key), func(b []byte) []byte {
		return appendString16(b, key)
	})
	if err != nil {
		return PutResponse{}, 0, err
	}
	defer putBuf(resp)
	epoch, body, err := decodeClientFrame(st, resp)
	if err != nil {
		return PutResponse{}, epoch, err
	}
	pr, err := decodeClientPutBody(body)
	return pr, epoch, err
}

// Get reads key through the node's coordinator.
func (bc *BinClient) Get(key string) (GetResponse, uint64, error) {
	st, resp, err := bc.do(opClientGet, 2+len(key), func(b []byte) []byte {
		return appendString16(b, key)
	})
	if err != nil {
		return GetResponse{}, 0, err
	}
	defer putBuf(resp)
	epoch, body, err := decodeClientFrame(st, resp)
	if err != nil {
		return GetResponse{}, epoch, err
	}
	gr, err := decodeClientGetBody(body)
	return gr, epoch, err
}

// MPut writes a batch of operations through the node's coordinator in one
// frame, answering per op (index-aligned with ops). A transport- or
// frame-level failure returns err; per-op failures come back as typed
// verdicts in the result slice.
func (bc *BinClient) MPut(ops []BatchPutOp) ([]BatchPutResult, uint64, error) {
	if len(ops) == 0 {
		return nil, 0, nil
	}
	if len(ops) > maxBatchOps {
		return nil, 0, fmt.Errorf("server: batch of %d ops exceeds %d", len(ops), maxBatchOps)
	}
	hint := 2
	for i := range ops {
		hint += 7 + len(ops[i].Key) + len(ops[i].Value)
	}
	st, resp, err := bc.do(opClientMPut, hint, func(b []byte) []byte {
		b = binary.BigEndian.AppendUint16(b, uint16(len(ops)))
		for i := range ops {
			b = appendString16(b, ops[i].Key)
			var flags byte
			if ops[i].Tombstone {
				flags |= batchFlagTombstone
			}
			b = append(b, flags)
			b = appendString32(b, ops[i].Value)
		}
		return b
	})
	if err != nil {
		return nil, 0, err
	}
	defer putBuf(resp)
	epoch, body, err := decodeClientFrame(st, resp)
	if err != nil {
		return nil, epoch, err
	}
	outs, err := decodeClientMPutBody(body)
	if err == nil && len(outs) != len(ops) {
		err = errors.New("server: batch put response count mismatch")
	}
	if err != nil {
		return nil, epoch, err
	}
	return outs, epoch, nil
}

// MGet reads a batch of keys through the node's coordinator in one frame,
// answering per key (index-aligned with keys).
func (bc *BinClient) MGet(keys []string) ([]BatchGetResult, uint64, error) {
	if len(keys) == 0 {
		return nil, 0, nil
	}
	if len(keys) > maxBatchOps {
		return nil, 0, fmt.Errorf("server: batch of %d keys exceeds %d", len(keys), maxBatchOps)
	}
	hint := 2
	for _, k := range keys {
		hint += 2 + len(k)
	}
	st, resp, err := bc.do(opClientMGet, hint, func(b []byte) []byte {
		b = binary.BigEndian.AppendUint16(b, uint16(len(keys)))
		for _, k := range keys {
			b = appendString16(b, k)
		}
		return b
	})
	if err != nil {
		return nil, 0, err
	}
	defer putBuf(resp)
	epoch, body, err := decodeClientFrame(st, resp)
	if err != nil {
		return nil, epoch, err
	}
	outs, err := decodeClientMGetBody(body)
	if err == nil && len(outs) != len(keys) {
		err = errors.New("server: batch get response count mismatch")
	}
	if err != nil {
		return nil, epoch, err
	}
	return outs, epoch, nil
}

func (bc *BinClient) jsonOp(op byte, out any) (uint64, error) {
	st, resp, err := bc.do(op, 0, func(b []byte) []byte { return b })
	if err != nil {
		return 0, err
	}
	defer putBuf(resp)
	epoch, body, err := decodeClientFrame(st, resp)
	if err != nil {
		return epoch, err
	}
	if err := json.Unmarshal(body, out); err != nil {
		return epoch, fmt.Errorf("server: decode client response: %w", err)
	}
	return epoch, nil
}

// Config fetches the node's membership view.
func (bc *BinClient) Config() (ConfigResponse, uint64, error) {
	var cfg ConfigResponse
	epoch, err := bc.jsonOp(opClientConfig, &cfg)
	return cfg, epoch, err
}

// Stats fetches the node's local counters.
func (bc *BinClient) Stats() (StatsResponse, uint64, error) {
	var st StatsResponse
	epoch, err := bc.jsonOp(opClientStats, &st)
	return st, epoch, err
}

// WARS fetches the node's per-leg latency reservoirs.
func (bc *BinClient) WARS() (WARSResponse, uint64, error) {
	var wr WARSResponse
	epoch, err := bc.jsonOp(opClientWARS, &wr)
	return wr, epoch, err
}

// Close tears down every connection; in-flight calls fail exactly once.
func (bc *BinClient) Close() {
	bc.mu.Lock()
	bc.closed = true
	conns := bc.conns
	bc.conns = [binConnsPerNode]*muxConn{}
	bc.mu.Unlock()
	for _, mc := range conns {
		if mc != nil {
			mc.teardown(errMuxClosed)
		}
	}
}

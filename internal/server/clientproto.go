package server

// Binary client protocol: the store's one client protocol, and the
// forward role's codec. A client opens a TCP connection to a node's
// internal address and sends opClientHello carrying the protocol version
// it speaks (transport.go); on an accepting reply the connection is a
// client-role connection in tagged framing (tag|id|len|payload), with
// pipelined PUT/GET/DELETE/batch/config/stats/WARS requests multiplexed
// over it by the same machinery peers use (mux.go). Server-side, client
// ops dispatch into the coordinator entry points (routeWriteOp,
// coordinateGetOp, coordinateMPut/MGet, configLocal, statsLocal). A node
// forwarding a write to the key's coordinator does not speak this role: it
// sends opForwardWrite, tagged with its ring epoch, on a forward-role
// connection (peer.ForwardWrite), and is answered in the same status
// family.
//
// Every response payload is prefixed with the responding node's ring epoch:
// clients compare it against their cached view and re-fetch membership on
// a bump. Error responses carry a one-byte code so clients can distinguish
// retryable routing-level unavailability (CodeUnavailable) from final
// quorum verdicts (CodeQuorumFailed — "quorum not reached" is an answer,
// not an outage) and malformed requests (CodeBadRequest).

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// clientProtoVersion is the client hello's version; a node refuses
// versions it does not speak, so a newer client fails loudly rather than
// misframing.
const clientProtoVersion byte = 1

// Client request layouts (opcodes in transport.go):
//
//	opClientPut     key string16 | value string32
//	opClientDelete  key string16
//	opClientGet     key string16
//	opClientConfig, opClientStats, opClientWARS: empty
//	opClientMPut    count u16 | (key string16 | flags u8 | value string32)*
//	opClientMGet    count u16 | (key string16)*
//
// A batched op's response carries one typed verdict per entry,
// index-aligned, so one key's failure never fails its batch (batch codecs
// below; coordination in batch.go).

// batchFlagTombstone marks a delete inside an opClientMPut op list and on
// an opForwardWrite.
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

// Retryable reports whether another node might answer differently:
// routing-level unavailability is, quorum verdicts and bad requests are
// final.
func (e *ClientError) Retryable() bool { return e.Code == CodeUnavailable }

// --- wire codecs ----------------------------------------------------------

// appendClientWrite encodes an opClientPut (or, for a tombstone,
// opClientDelete) request.
func appendClientWrite(b []byte, key, value string, tombstone bool) []byte {
	b = appendString16(b, key)
	if !tombstone {
		b = appendString32(b, value)
	}
	return b
}

// decodeClientWrite parses appendClientWrite's payload; ok is false on a
// truncated frame or trailing bytes.
func decodeClientWrite(payload []byte, tombstone bool) (key, value string, ok bool) {
	d := &decoder{b: payload}
	key = d.string16()
	if !tombstone {
		value = d.string32()
	}
	return key, value, d.err == nil && len(d.b) == 0
}

// appendForwardWrite encodes an opForwardWrite request: the forwarder's
// ring epoch, then the write as one opClientMPut entry.
func appendForwardWrite(b []byte, key, value string, tombstone bool, fwdEpoch uint64) []byte {
	b = binary.BigEndian.AppendUint64(b, fwdEpoch)
	b = appendString16(b, key)
	var flags byte
	if tombstone {
		flags |= batchFlagTombstone
	}
	return appendString32(append(b, flags), value)
}

// decodeForwardWrite parses appendForwardWrite's payload; ok is false on a
// truncated frame or trailing bytes.
func decodeForwardWrite(payload []byte) (key, value string, tombstone bool, fwdEpoch uint64, ok bool) {
	d := &decoder{b: payload}
	fwdEpoch = d.u64()
	key = d.string16()
	tombstone = d.u8()&batchFlagTombstone != 0
	value = d.string32()
	return key, value, tombstone, fwdEpoch, d.err == nil && len(d.b) == 0
}

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

// appendClientGetBody appends the op-specific body of a get response —
// flags u8 | seq u64 | coordMs f64 | node u32 | value string32 — the body
// of an opClientGet answer and of each successful opClientMGet verdict.
// The coordinator appends it straight from the winning replica's answer
// (readState.answer).
func appendClientGetBody(b []byte, found bool, seq uint64, coordMs float64, node int, value []byte) []byte {
	var flags byte
	if found {
		flags |= clientGetFlagFound
	}
	b = append(b, flags)
	b = binary.BigEndian.AppendUint64(b, seq)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(coordMs))
	b = binary.BigEndian.AppendUint32(b, uint32(node))
	return appendString32(b, value)
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

// appendVerdictErr appends a failed batch entry: its code as the verdict,
// then its message.
func appendVerdictErr(b []byte, oe *opError) []byte {
	b = growBuf(b, 1+2+len(oe.msg))
	return appendString16(append(b, oe.code), oe.msg)
}

func appendClientMPutResponse(b []byte, epoch uint64, outs []batchPutOut) []byte {
	b = binary.BigEndian.AppendUint64(b, epoch)
	b = binary.BigEndian.AppendUint16(b, uint16(len(outs)))
	for i := range outs {
		if oe := outs[i].oe; oe != nil {
			b = appendVerdictErr(b, oe)
			continue
		}
		pr := outs[i].pr
		b = append(growBuf(b, 1+8+8+8+4), 0)
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

// decodeBatchKeys parses an opClientMGet payload; the keys alias it.
func decodeBatchKeys(d *decoder) ([][]byte, *opError) {
	count := int(d.u16())
	if d.err != nil || count == 0 || count > maxBatchOps {
		return nil, errBadRequest("server: malformed batch request")
	}
	keys := make([][]byte, count)
	for i := range keys {
		keys[i] = d.bytes16()
	}
	if d.err != nil {
		return nil, errBadRequest("server: malformed batch request")
	}
	return keys, nil
}

// decodeClientFrame splits a client or forward response into its
// ring-epoch prefix and op-specific body. A statusClientErr frame comes
// back as a *ClientError; any other status is a plain error.
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

// clientFail answers a client or forward request with a typed error frame.
func clientFail(epoch uint64, buf []byte, oe *opError) (byte, []byte) {
	return statusClientErr, appendClientError(buf[:0], epoch, oe.code, oe.msg)
}

// downRefusal is the typed retryable refusal a crashed or partitioned
// replica answers client and forward requests with (tryForwardOp matches
// its messages); nil when the replica is serving.
func (n *Node) downRefusal() *opError {
	if n.faults.Down(n.id) {
		return errUnavailable(ErrReplicaDown.Error())
	}
	if n.faults.Partitioned(n.id) {
		return errUnavailable(ErrPartitioned.Error())
	}
	return nil
}

// serveWrite routes one decoded client or forwarded write and encodes its
// answer; fwdEpoch is 0 for a client's own write.
func (n *Node) serveWrite(epoch uint64, buf []byte, key, value string, tombstone bool, fwdEpoch uint64) (byte, []byte) {
	if len(value) > maxValueBytes {
		return clientFail(epoch, buf, errBadRequest(errValueTooLarge))
	}
	pr, oe := n.routeWriteOp(key, value, tombstone, fwdEpoch)
	if oe != nil {
		return clientFail(epoch, buf, oe)
	}
	return statusClientOK, appendClientPutResponse(buf[:0], epoch, pr)
}

// handleClientOp is the client role's opcode table. It runs on the mux
// worker pool (client ops block on quorums, so they never run inline in
// the reader loop). buf is the pooled response scratch from serveMux.
func (n *Node) handleClientOp(op byte, payload, buf []byte) (byte, []byte) {
	epoch := n.RingEpoch()
	if oe := n.downRefusal(); oe != nil {
		return clientFail(epoch, buf, oe)
	}
	d := &decoder{b: payload}
	switch op {
	case opClientPut, opClientDelete:
		key, value, ok := decodeClientWrite(payload, op == opClientDelete)
		if !ok || key == "" {
			return clientFail(epoch, buf, errBadRequest("server: malformed client request"))
		}
		return n.serveWrite(epoch, buf, key, value, op == opClientDelete, 0)
	case opClientGet:
		// The key stays in the request frame, which outlives this call.
		key := d.bytes16()
		if d.err != nil || len(key) == 0 {
			return clientFail(epoch, buf, errBadRequest("server: malformed client request"))
		}
		out, oe := n.coordinateGetOp(key, binary.BigEndian.AppendUint64(buf[:0], epoch))
		if oe != nil {
			return clientFail(epoch, buf, oe)
		}
		return statusClientOK, out
	case opClientMPut:
		ops, oe := decodeBatchPutOps(d)
		if oe != nil {
			return clientFail(epoch, buf, oe)
		}
		return statusClientOK, appendClientMPutResponse(buf[:0], epoch, n.coordinateMPut(ops))
	case opClientMGet:
		keys, oe := decodeBatchKeys(d)
		if oe != nil {
			return clientFail(epoch, buf, oe)
		}
		return statusClientOK, n.coordinateMGet(keys, binary.BigEndian.AppendUint64(buf[:0], epoch))
	case opClientConfig:
		cfg, oe := n.configLocal()
		if oe != nil {
			return clientFail(epoch, buf, oe)
		}
		return clientJSON(epoch, buf, cfg)
	case opClientStats:
		return clientJSON(epoch, buf, n.statsLocal())
	case opClientWARS:
		return clientJSON(epoch, buf, n.legs.snapshot(n.id))
	default:
		return clientFail(epoch, buf, errBadRequest(fmt.Sprintf("server: op %d is not a client op", op)))
	}
}

// handleForwardOp is the forward role's opcode table: one write another
// node proxies here as the key's coordinator, tagged with that node's ring
// epoch (routeWriteOp). It answers in the client status family with the
// same typed refusals, so the forwarder relays the verdict as is.
func (n *Node) handleForwardOp(op byte, payload, buf []byte) (byte, []byte) {
	epoch := n.RingEpoch()
	if oe := n.downRefusal(); oe != nil {
		return clientFail(epoch, buf, oe)
	}
	if op != opForwardWrite {
		return clientFail(epoch, buf, errBadRequest(fmt.Sprintf("server: op %d is not a forward op", op)))
	}
	key, value, tombstone, fwdEpoch, ok := decodeForwardWrite(payload)
	if !ok || key == "" || fwdEpoch == 0 {
		return clientFail(epoch, buf, errBadRequest("server: malformed forward request"))
	}
	return n.serveWrite(epoch, buf, key, value, tombstone, fwdEpoch)
}

// clientJSON answers a cold-path client op (config/stats/WARS) with an
// epoch-prefixed JSON body — these are off the hot path, so reflection
// cost is fine and the response types stay shared with the HTTP admin
// surface.
func clientJSON(epoch uint64, buf []byte, v any) (byte, []byte) {
	enc, err := json.Marshal(v)
	if err != nil {
		return statusClientErr, appendClientError(buf[:0], epoch, CodeInternal, "server: encode response: "+err.Error())
	}
	b := binary.BigEndian.AppendUint64(buf[:0], epoch)
	return statusClientOK, append(b, enc...)
}

// --- client connection ----------------------------------------------------

// BinClient is one node's end of the binary client protocol: a small pool
// of client-role connections with transparent redial. Calls pipeline —
// many goroutines share one connection and the mux reader matches
// responses by tag. A dead connection fails its in-flight calls exactly
// once (mux teardown semantics); BinClient deliberately does NOT retry a
// failed call — retry policy belongs to the ring-walking client above it.
type BinClient struct {
	slots connSlots
}

// NewBinClient prepares a client for the node at addr (internal TCP
// address, not the HTTP one). Connections are dialed lazily.
func NewBinClient(addr string) *BinClient {
	return &BinClient{slots: connSlots{addr: addr, role: roleClient}}
}

// Put writes key=value through the node's coordinator. The returned epoch
// is the node's ring epoch at response time (0 only on transport errors).
func (bc *BinClient) Put(key, value string) (PutResponse, uint64, error) {
	return bc.write(key, value, false)
}

// Delete writes a tombstone for key.
func (bc *BinClient) Delete(key string) (PutResponse, uint64, error) {
	return bc.write(key, "", true)
}

// write sends one put or delete frame.
func (bc *BinClient) write(key, value string, tombstone bool) (PutResponse, uint64, error) {
	op := opClientPut
	if tombstone {
		op = opClientDelete
	}
	return putAnswer(bc.slots.call(op, 6+len(key)+len(value), func(b []byte) []byte {
		return appendClientWrite(b, key, value, tombstone)
	}))
}

// putAnswer decodes the response to a put, delete or forwarded write.
func putAnswer(st byte, resp []byte, err error) (PutResponse, uint64, error) {
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
	st, resp, err := bc.slots.call(opClientGet, 2+len(key), func(b []byte) []byte {
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
	st, resp, err := bc.slots.call(opClientMPut, hint, func(b []byte) []byte {
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
	st, resp, err := bc.slots.call(opClientMGet, hint, func(b []byte) []byte {
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
	st, resp, err := bc.slots.call(op, 0, func(b []byte) []byte { return b })
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
func (bc *BinClient) Close() { bc.slots.close() }

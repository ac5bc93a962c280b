package server

// Binary client protocol: the store's one client protocol, and the
// forward role's codec. A client opens a TCP connection to a node's
// internal address and sends opClientHello carrying the protocol version
// it speaks (transport.go); on an accepting reply the connection is a
// client-role connection in tagged framing (tag|id|len|payload), with
// pipelined write-list, read-list, config, stats and WARS requests
// multiplexed over it by the same machinery peers use (mux.go). A
// single-key PUT, DELETE or GET is a list of one. Server-side, client ops
// dispatch into the coordinator entry points (coordinateMPut,
// coordinateReads, configLocal, statsLocal). A node forwarding a write to
// the key's coordinator does not speak this role: it sends
// opForwardWrite, tagged with its ring epoch, on a forward-role
// connection (peer.ForwardWrite), and is answered in the same status
// family with the put body a write-list entry carries.
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
// misframing. Version 2 retired version 1's single-key opcodes.
const clientProtoVersion byte = 2

// Client request layouts (opcodes in transport.go):
//
//	opClientMPut    count u16 | (key string16 | flags u8 | value string32)*
//	opClientMGet    count u16 | (key string16)*
//	opClientConfig, opClientStats, opClientWARS: empty
//
// A list holds 1 to maxBatchOps entries, and a single-key operation is a
// list of one. The response carries one typed verdict per entry,
// index-aligned, so one key's failure never fails its list (codecs below;
// coordination in batch.go). Opcodes 14, 15 and 16 are retired (version
// 1's single-key put, delete and get): a node refuses them.

// batchFlagTombstone marks a delete inside an opClientMPut entry and on an
// opForwardWrite.
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

// appendPutEntry appends one write in its wire layout — key string16 |
// flags u8 | value string32 — an opClientMPut entry, and the body of an
// opForwardWrite.
func appendPutEntry(b []byte, w BatchPutOp) []byte {
	b = appendString16(b, w.Key)
	var flags byte
	if w.Tombstone {
		flags |= batchFlagTombstone
	}
	return appendString32(append(b, flags), w.Value)
}

// putEntry decodes appendPutEntry's layout, copying the key and value out.
func (d *decoder) putEntry() BatchPutOp {
	var w BatchPutOp
	w.Key = d.string16()
	w.Tombstone = d.u8()&batchFlagTombstone != 0
	w.Value = d.string32()
	return w
}

// appendForwardWrite encodes an opForwardWrite request: the forwarder's
// ring epoch, then the write as one opClientMPut entry.
func appendForwardWrite(b []byte, key, value string, tombstone bool, fwdEpoch uint64) []byte {
	b = binary.BigEndian.AppendUint64(b, fwdEpoch)
	return appendPutEntry(b, BatchPutOp{Key: key, Value: value, Tombstone: tombstone})
}

// decodeForwardWrite parses appendForwardWrite's payload; ok is false on a
// truncated frame or trailing bytes.
func decodeForwardWrite(payload []byte) (w BatchPutOp, fwdEpoch uint64, ok bool) {
	d := &decoder{b: payload}
	fwdEpoch = d.u64()
	w = d.putEntry()
	return w, fwdEpoch, d.err == nil && len(d.b) == 0
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

// putBodyLen is the length of appendPutBody's layout.
const putBodyLen = 8 + 8 + 8 + 4

// appendPutBody appends the body of one write's answer — seq u64 |
// committed u64 | coordMs f64 | node u32 — the body of each successful
// opClientMPut verdict and of a forwarded write's answer.
func appendPutBody(b []byte, pr PutResponse) []byte {
	b = binary.BigEndian.AppendUint64(b, pr.Seq)
	b = binary.BigEndian.AppendUint64(b, uint64(pr.CommittedUnixNano))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(pr.CoordMs))
	return binary.BigEndian.AppendUint32(b, uint32(pr.Node))
}

// putBody decodes appendPutBody's layout.
func (d *decoder) putBody() PutResponse {
	return PutResponse{
		Seq:               d.u64(),
		CommittedUnixNano: int64(d.u64()),
		CoordMs:           math.Float64frombits(d.u64()),
		Node:              int(int32(d.u32())),
	}
}

// appendPutAnswer encodes the answer to a forwarded write: the ring epoch,
// then the put body.
func appendPutAnswer(b []byte, epoch uint64, pr PutResponse) []byte {
	return appendPutBody(binary.BigEndian.AppendUint64(b, epoch), pr)
}

// putAnswer decodes the answer to a forwarded write (appendPutAnswer).
func putAnswer(st byte, resp []byte, err error) (PutResponse, uint64, error) {
	if err != nil {
		return PutResponse{}, 0, err
	}
	defer putBuf(resp)
	epoch, body, err := decodeClientFrame(st, resp)
	if err != nil {
		return PutResponse{}, epoch, err
	}
	d := &decoder{b: body}
	if pr := d.putBody(); d.err == nil {
		return pr, epoch, nil
	}
	return PutResponse{}, epoch, fmt.Errorf("server: malformed put response: %w", d.err)
}

const clientGetFlagFound = 1

// appendClientGetBody appends the body of one read's answer — flags u8 |
// seq u64 | coordMs f64 | node u32 | value string32 — the body of each
// successful opClientMGet verdict. The coordinator appends it straight
// from the winning replica's answer (readState.answer).
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

// getBody decodes appendClientGetBody's layout, copying the value out.
func (d *decoder) getBody() GetResponse {
	flags := d.u8()
	gr := GetResponse{
		Found:   flags&clientGetFlagFound != 0,
		Seq:     d.u64(),
		CoordMs: math.Float64frombits(d.u64()),
		Node:    int(int32(d.u32())),
	}
	gr.Value = d.string32()
	return gr
}

// --- list codecs ----------------------------------------------------------

// A list response body is `count u16` followed by one entry per request
// entry, index-aligned: `verdict u8 | entry-body`. Verdict 0 is success and
// the entry body is a put or get body; a nonzero verdict is the entry's
// client error code and the body is `msg string16`.

// BatchPutResult is one write's outcome inside a write list: exactly one
// of Resp and Err is meaningful (Err nil on success).
type BatchPutResult struct {
	Resp PutResponse
	Err  *ClientError
}

// BatchGetResult is one key's outcome inside a read list.
type BatchGetResult struct {
	Resp GetResponse
	Err  *ClientError
}

// appendVerdictErr appends a failed list entry: its code as the verdict,
// then its message.
func appendVerdictErr(b []byte, oe *opError) []byte {
	b = growBuf(b, 1+2+len(oe.msg))
	return appendString16(append(b, oe.code), oe.msg)
}

func appendClientMPutResponse(b []byte, epoch uint64, ops []putOp) []byte {
	b = binary.BigEndian.AppendUint64(b, epoch)
	b = binary.BigEndian.AppendUint16(b, uint16(len(ops)))
	for i := range ops {
		if oe := ops[i].oe; oe != nil {
			b = appendVerdictErr(b, oe)
			continue
		}
		b = appendPutBody(append(growBuf(b, 1+putBodyLen), 0), ops[i].pr)
	}
	return b
}

// listCount reads a list response's entry count, which must be want.
func (d *decoder) listCount(want int) {
	if count := int(d.u16()); d.err == nil && count != want {
		d.err = fmt.Errorf("server: %d answers for %d entries", count, want)
	}
}

// verdictErr reads a failed entry's verdict message; nil on success.
func (d *decoder) verdictErr() *ClientError {
	if verdict := d.u8(); verdict != 0 && d.err == nil {
		return &ClientError{Code: verdict, Msg: d.string16()}
	}
	return nil
}

// decodeClientMPutBody decodes an opClientMPut response body into out,
// one result per entry sent.
func decodeClientMPutBody(body []byte, out []BatchPutResult) error {
	d := &decoder{b: body}
	d.listCount(len(out))
	for i := range out {
		if out[i].Err = d.verdictErr(); out[i].Err == nil {
			out[i].Resp = d.putBody()
		}
	}
	if d.err != nil {
		return fmt.Errorf("server: malformed batch put response: %w", d.err)
	}
	return nil
}

// decodeClientMGetBody decodes an opClientMGet response body into out,
// one result per key sent.
func decodeClientMGetBody(body []byte, out []BatchGetResult) error {
	d := &decoder{b: body}
	d.listCount(len(out))
	for i := range out {
		if out[i].Err = d.verdictErr(); out[i].Err == nil {
			out[i].Resp = d.getBody()
		}
	}
	if d.err != nil {
		return fmt.Errorf("server: malformed batch get response: %w", d.err)
	}
	return nil
}

// requestCount reads a list request's entry count. Frame-level failures
// (bad count, truncation, trailing bytes) reject the whole list; per-entry
// semantic problems (empty key, oversized value) become per-entry
// verdicts, so the rest of the list proceeds.
func (d *decoder) requestCount() int {
	count := int(d.u16())
	if d.err == nil && (count == 0 || count > maxBatchOps) {
		d.err = errors.New("server: list count out of range")
	}
	return count
}

var errMalformedList = errBadRequest("server: malformed batch request")

// decodeBatchPutOps appends an opClientMPut payload's writes to ops.
func decodeBatchPutOps(d *decoder, ops []putOp) ([]putOp, *opError) {
	for range d.requestCount() {
		if d.err != nil {
			break
		}
		ops = append(ops, putOp{BatchPutOp: d.putEntry()})
	}
	if d.err != nil || len(d.b) != 0 {
		return ops, errMalformedList
	}
	return ops, nil
}

// decodeBatchKeys appends an opClientMGet payload's keys to gets; the
// keys alias the payload.
func decodeBatchKeys(d *decoder, gets []getOp) ([]getOp, *opError) {
	for range d.requestCount() {
		if d.err != nil {
			break
		}
		gets = append(gets, getOp{key: d.bytes16()})
	}
	if d.err != nil || len(d.b) != 0 {
		return gets, errMalformedList
	}
	return gets, nil
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

// handleClientOp is the client role's opcode table. It runs on the mux
// worker pool (client ops block on quorums, so they never run inline in
// the reader loop). buf is the pooled response scratch from serveMux.
func (n *Node) handleClientOp(op byte, payload, buf []byte) (byte, []byte) {
	epoch := n.RingEpoch()
	if oe := n.downRefusal(); oe != nil {
		return clientFail(epoch, buf, oe)
	}
	switch op {
	case opClientMPut, opClientMGet:
		return n.serveList(op, epoch, payload, buf)
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

// serveList decodes a write or read list into pooled scratch, coordinates
// it, and answers one verdict per entry.
func (n *Node) serveList(op byte, epoch uint64, payload, buf []byte) (byte, []byte) {
	sc := opScratchPool.Get().(*opScratch)
	defer sc.release()
	d := &decoder{b: payload}
	var oe *opError
	if op == opClientMPut {
		if sc.puts, oe = decodeBatchPutOps(d, sc.puts); oe == nil {
			n.coordinateMPut(sc.puts)
			return statusClientOK, appendClientMPutResponse(buf[:0], epoch, sc.puts)
		}
	} else if sc.gets, oe = decodeBatchKeys(d, sc.gets); oe == nil {
		return statusClientOK, n.coordinateReads(sc.gets, binary.BigEndian.AppendUint64(buf[:0], epoch))
	}
	return clientFail(epoch, buf, oe)
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
	w, fwdEpoch, ok := decodeForwardWrite(payload)
	switch {
	case !ok || w.Key == "" || fwdEpoch == 0:
		return clientFail(epoch, buf, errBadRequest("server: malformed forward request"))
	case len(w.Value) > maxValueBytes:
		return clientFail(epoch, buf, errBadRequest(errValueTooLarge))
	}
	pr, oe := n.routeWriteOp(w, fwdEpoch)
	if oe != nil {
		return clientFail(epoch, buf, oe)
	}
	return statusClientOK, appendPutAnswer(buf[:0], epoch, pr)
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

// Put writes key=value through the node's coordinator, as a write list of
// one. The returned epoch is the node's ring epoch at response time (0
// only on transport errors).
func (bc *BinClient) Put(key, value string) (PutResponse, uint64, error) {
	return bc.putOne(BatchPutOp{Key: key, Value: value})
}

// Delete writes a tombstone for key, as a write list of one.
func (bc *BinClient) Delete(key string) (PutResponse, uint64, error) {
	return bc.putOne(BatchPutOp{Key: key, Tombstone: true})
}

func (bc *BinClient) putOne(w BatchPutOp) (PutResponse, uint64, error) {
	var out [1]BatchPutResult
	epoch, err := bc.MPut([]BatchPutOp{w}, out[:])
	return out[0].Resp, epoch, entryErr(err, out[0].Err)
}

// Get reads key through the node's coordinator, as a read list of one.
func (bc *BinClient) Get(key string) (GetResponse, uint64, error) {
	var out [1]BatchGetResult
	epoch, err := bc.MGet([]string{key}, out[:])
	return out[0].Resp, epoch, entryErr(err, out[0].Err)
}

// entryErr is a list-of-one call's error: the call's own, else its one
// entry's verdict.
func entryErr(err error, ce *ClientError) error {
	if err == nil && ce != nil {
		return ce
	}
	return err
}

// MPut writes a list of operations through the node's coordinator in one
// frame, answering per op into out (one slot per op, index-aligned). A
// transport- or frame-level failure returns err; per-op failures come back
// as typed verdicts in out.
func (bc *BinClient) MPut(ops []BatchPutOp, out []BatchPutResult) (uint64, error) {
	if err := listBounds(len(ops), len(out)); err != nil || len(ops) == 0 {
		return 0, err
	}
	hint := 2
	for i := range ops {
		hint += 7 + len(ops[i].Key) + len(ops[i].Value)
	}
	st, resp, err := bc.slots.call(opClientMPut, hint, func(b []byte) []byte {
		b = binary.BigEndian.AppendUint16(b, uint16(len(ops)))
		for i := range ops {
			b = appendPutEntry(b, ops[i])
		}
		return b
	})
	if err != nil {
		return 0, err
	}
	defer putBuf(resp)
	epoch, body, err := decodeClientFrame(st, resp)
	if err == nil {
		err = decodeClientMPutBody(body, out)
	}
	return epoch, err
}

// MGet reads a list of keys through the node's coordinator in one frame,
// answering per key into out (one slot per key, index-aligned), like MPut.
func (bc *BinClient) MGet(keys []string, out []BatchGetResult) (uint64, error) {
	if err := listBounds(len(keys), len(out)); err != nil || len(keys) == 0 {
		return 0, err
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
		return 0, err
	}
	defer putBuf(resp)
	epoch, body, err := decodeClientFrame(st, resp)
	if err == nil {
		err = decodeClientMGetBody(body, out)
	}
	return epoch, err
}

// listBounds checks a list call's size and answer slots before anything
// is sent.
func listBounds(entries, slots int) error {
	switch {
	case entries > maxBatchOps:
		return fmt.Errorf("server: list of %d entries exceeds %d", entries, maxBatchOps)
	case slots != entries:
		return fmt.Errorf("server: %d answer slots for %d entries", slots, entries)
	}
	return nil
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

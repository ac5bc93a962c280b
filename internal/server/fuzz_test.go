package server

// Fuzz coverage for the internal transport: the frame decoders and the
// per-role opcode tables read bytes from the network, so malformed length
// prefixes, truncated or oversized payloads, and opcodes of another role
// must all fail cleanly — no panics, no unbounded allocation, no reads
// past the payload, and never a status outside the role's family.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"pbs/internal/kvstore"
	"pbs/internal/ring"
)

// frame builds one wire frame (tag, length prefix, payload).
func frame(tag byte, payload []byte) []byte {
	out := []byte{tag, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(out[1:], uint32(len(payload)))
	return append(out, payload...)
}

var (
	fuzzNodeOnce   sync.Once
	sharedFuzzNode *Node
)

// fuzzNode returns a process-shared detached replica (storage and
// membership, no listeners) for dispatching RPCs against. Shared, not
// per-iteration: client ops (opClientPut/Get/...) fan out through the
// persistent leg-worker queues, whose workers park on n.stop — a node per
// fuzz iteration would leak its workers. The internal addresses point at
// closed loopback ports so fan-out legs fail instantly; no assertion in
// this file depends on accumulated store or membership state.
func fuzzNode() *Node {
	fuzzNodeOnce.Do(func() {
		n := &Node{
			store:        kvstore.NewSynced(),
			pendingJoins: make(map[string]int),
			stop:         make(chan struct{}),
			live:         newLiveness(),
		}
		m, err := ring.NewMembership([]ring.Member{
			{ID: 0, HTTPAddr: "http://127.0.0.1:9", InternalAddr: "127.0.0.1:9"},
			{ID: 1, HTTPAddr: "http://127.0.0.1:11", InternalAddr: "127.0.0.1:11"},
		}, 4)
		if err != nil {
			panic(err)
		}
		n.nrep.Store(2)
		n.installMembership(m)
		n.applyLocal(kvstore.Version{Key: "seeded", Seq: 3, Value: "v"})
		sharedFuzzNode = n
	})
	return sharedFuzzNode
}

// legPayloads returns opApply and opGet payloads for the fuzz seeds: a
// one-entry list, then the same entry behind a count of 0 and behind a
// count of maxBatchOps+1, both of which a replica refuses.
func legPayloads() (apply, get [3][]byte) {
	apply[0] = appendApply(nil, []kvstore.Version{{Key: "k", Seq: 7, Value: "hello"}})
	get[0] = appendGet(nil, [][]byte{[]byte("seeded")})
	for i, count := range []uint16{0, maxBatchOps + 1} {
		apply[i+1] = append(binary.BigEndian.AppendUint16(nil, count), apply[0][2:]...)
		get[i+1] = append(binary.BigEndian.AppendUint16(nil, count), get[0][2:]...)
	}
	return apply, get
}

func FuzzFrameDecoder(f *testing.F) {
	// Well-formed frames for every opcode, and the data legs' refused
	// counts.
	ver := kvstore.Version{Key: "k", Seq: 7, Value: "hello"}
	apply, get := legPayloads()
	for i := range apply {
		f.Add(frame(opApply, apply[i]))
		f.Add(frame(opGet, get[i]))
	}
	f.Add(frame(opTree, []byte{8}))
	bucketReq := []byte{6, 0, 2, 0, 0, 0, 1, 0, 0, 0, 5}
	f.Add(frame(opBucket, bucketReq))
	f.Add(frame(opPing, nil))
	f.Add(frame(opApplyHint, appendHintedApply(nil, 1, ver)))
	f.Add(frame(opJoin, appendString16(appendString16(nil, "http://c"), "c:1")))
	f.Add(frame(opMembership, nil))
	f.Add(frame(opMembership, ring.EncodeMembership(fuzzNode().Membership())))
	f.Add(frame(opStreamRange, streamRangeRequest{
		requester: ring.Member{ID: 2, HTTPAddr: "http://c", InternalAddr: "c:1"},
		cursor:    "", max: 8,
	}.encode()))
	// Malformed: truncated header, truncated payload, oversized length
	// prefix, zero-length frame, unknown opcode, garbage version fields.
	f.Add([]byte{opApply, 0, 0})
	f.Add(frame(opApply, []byte{0, 1, 0, 5, 'a'}))
	f.Add([]byte{opGet, 0xff, 0xff, 0xff, 0xff})
	f.Add(frame(opGet, nil))
	f.Add(frame(99, []byte("junk")))
	f.Add(frame(opTree, []byte{0}))
	f.Add(frame(opTree, []byte{255}))
	f.Add(frame(opBucket, []byte{24, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}))
	f.Add(frame(opBucket, []byte{4, 0xff, 0xff}))
	f.Add(frame(opApplyHint, []byte{0xff, 0xff}))                        // truncated target
	f.Add(frame(opApplyHint, []byte{0xff, 0xff, 0xff, 0xff, 0, 1, 'k'})) // target outside cluster

	f.Fuzz(func(t *testing.T, data []byte) {
		// The stream decoder must either produce a bounded payload or fail;
		// it must never allocate past maxFrame or read past the stream.
		tag, payload, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err == nil {
			if len(payload) > maxFrame {
				t.Fatalf("frame decoder returned %d bytes, limit %d", len(payload), maxFrame)
			}
			// A decoded frame must dispatch without panicking, whatever its
			// opcode and payload.
			n := fuzzNode()
			status, resp := n.handlePeerOp(tag, payload, nil)
			if status != statusOK && status != statusErr {
				t.Fatalf("dispatcher returned unknown status %d", status)
			}
			if status == statusErr && len(resp) == 0 {
				t.Fatal("error status with empty message")
			}
		}

		// Dispatch the raw bytes directly too (first byte as opcode), so the
		// payload decoders see inputs the framing layer would reject.
		if len(data) > 0 {
			n := fuzzNode()
			n.handlePeerOp(data[0], data[1:], nil)
		}
	})
}

// taggedFrame builds one tagged wire frame (tag, request id, length prefix,
// payload) for malformed-stream seeds.
func taggedFrame(tag byte, id uint64, payload []byte) []byte {
	out := make([]byte, taggedHdrLen, taggedHdrLen+len(payload))
	out[0] = tag
	binary.BigEndian.PutUint64(out[1:], id)
	binary.BigEndian.PutUint32(out[9:], uint32(len(payload)))
	return append(out, payload...)
}

// FuzzTaggedFrameRoundTrip pins the tagged (multiplexed) frame codec: any
// (tag, id, payload) triple must survive an encode/decode round trip
// bit-exactly, including the request id the mux layers route completions
// by.
//
// The payload is the fuzzed pattern repeated to a fuzzed length. The
// codec's coverage depends on payload length (pooled-buffer size classes,
// bufio's direct-write path), and Go's minimizer shrinks an interesting
// []byte by trying its sub-slices — quadratic in its length — so a fuzzed
// payload of a few KiB would keep the worker minimizing, not fuzzing, for
// the rest of a short run. An integer length is never minimized; the
// pattern is, and no coverage depends on it.
func FuzzTaggedFrameRoundTrip(f *testing.F) {
	apply, get := legPayloads()
	for i := range apply {
		f.Add(opApply, uint64(i), uint32(len(apply[i])), apply[i])
		f.Add(opGet, uint64(i), uint32(len(get[i])), get[i])
	}
	f.Add(opPing, uint64(0), uint32(0), []byte{})
	f.Add(byte(255), ^uint64(0), uint32(1024), []byte{0xab})
	f.Add(statusOK, uint64(1<<40), uint32(1), []byte{1})
	f.Fuzz(func(t *testing.T, tag byte, id uint64, size uint32, pattern []byte) {
		// Up to 512 KiB: past the largest pooled class below the top one.
		payload := make([]byte, size%(512<<10))
		if len(pattern) > 0 {
			for n := copy(payload, pattern); n < len(payload); n *= 2 {
				copy(payload[n:], payload[:n])
			}
		}
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeTaggedFrame(bw, tag, id, payload); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		gotTag, gotID, gotPayload, err := readTaggedFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("decode of encoded frame: %v", err)
		}
		if gotTag != tag || gotID != id || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("round trip changed frame: tag %d->%d id %d->%d payload %d->%d bytes",
				tag, gotTag, id, gotID, len(payload), len(gotPayload))
		}
		putBuf(gotPayload)
	})
}

// FuzzMuxStream drives arbitrary bytes through the tagged reader the way
// the serving side consumes a connection: frames are decoded until the
// stream fails, and each decoded frame is dispatched through every role's
// opcode table with a pooled response scratch. Malformed headers,
// truncated payloads, oversized length prefixes and opcodes of another
// role must all fail cleanly — no panics, no unbounded allocation — and
// each table must answer in its own status family: statusOK/statusErr on
// the peer role, statusClientOK/statusClientErr on the client and forward
// roles.
func FuzzMuxStream(f *testing.F) {
	apply, get := legPayloads()
	for i := range apply {
		f.Add(append(taggedFrame(opApply, 1, apply[i]), taggedFrame(opGet, 2, get[i])...))
	}
	f.Add(taggedFrame(opPing, 9, nil))
	f.Add(taggedFrame(opPeerHello, 3, []byte{peerProtoVersion}))
	f.Add([]byte{opApply, 0, 0, 0, 0, 0})                                // truncated header
	f.Add([]byte{opGet, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}) // oversized length
	f.Add(taggedFrame(opApply, 4, []byte{0, 1, 0, 5, 'a'}))              // truncated version
	f.Add(taggedFrame(99, 5, []byte("junk")))                            // unknown opcode
	f.Add(taggedFrame(opClientPut, 6, appendString32(appendString16(nil, "k"), "v")))
	f.Add(taggedFrame(opForwardWrite, 7, appendForwardWrite(nil, "seeded", "v", false, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := fuzzNode()
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			tag, _, payload, err := readTaggedFrame(br)
			if err != nil {
				return
			}
			if len(payload) > maxFrame {
				t.Fatalf("stream decoder returned %d bytes, limit %d", len(payload), maxFrame)
			}
			for r := range hellos {
				out := getBuf(64)
				status, resp := n.handlerFor(role(r))(tag, payload, out[:0])
				okStatus, errStatus := byte(statusClientOK), byte(statusClientErr)
				if role(r) == rolePeer {
					okStatus, errStatus = statusOK, statusErr
				}
				if status != okStatus && status != errStatus {
					t.Fatalf("role %d dispatcher returned status %d for op %d", r, status, tag)
				}
				if status == errStatus && len(resp) == 0 {
					t.Fatalf("role %d: error status with empty message", r)
				}
				putBuf(out)
			}
			putBuf(payload)
		}
	})
}

// FuzzClientStream drives arbitrary bytes through the tagged reader the
// way a server consumes a client-role connection: every decoded
// frame dispatches through the client-op path. Malformed keys, truncated
// values, garbage opcodes in the client range — all must produce a typed
// client-status frame whose payload decodes (epoch prefix, error code +
// message), never a panic or an unframeable response.
func FuzzClientStream(f *testing.F) {
	f.Add(taggedFrame(opClientPut, 1, appendString32(appendString16(nil, "k"), "v")))
	f.Add(taggedFrame(opClientGet, 2, appendString16(nil, "seeded")))
	f.Add(taggedFrame(opClientDelete, 3, appendString16(nil, "k")))
	f.Add(taggedFrame(opClientConfig, 4, nil))
	f.Add(taggedFrame(opClientStats, 5, nil))
	f.Add(taggedFrame(opClientWARS, 6, nil))
	f.Add(taggedFrame(opClientPut, 7, []byte{0, 5, 'a'}))       // truncated key
	f.Add(taggedFrame(opClientPut, 8, appendString16(nil, ""))) // empty key, no value
	f.Add(taggedFrame(opClientGet, 9, []byte{0xff, 0xff, 'x'})) // oversized key length
	f.Add(taggedFrame(opClientHello, 10, []byte{clientProtoVersion}))
	mputReq := binary.BigEndian.AppendUint16(nil, 2)
	mputReq = appendString32(append(appendString16(mputReq, "a"), 0), "v1")
	mputReq = appendString32(append(appendString16(mputReq, "b"), batchFlagTombstone), "")
	f.Add(taggedFrame(opClientMPut, 11, mputReq))
	mgetReq := binary.BigEndian.AppendUint16(nil, 2)
	mgetReq = appendString16(appendString16(mgetReq, "seeded"), "missing")
	f.Add(taggedFrame(opClientMGet, 12, mgetReq))
	f.Add(taggedFrame(opClientMGet, 13, binary.BigEndian.AppendUint16(nil, 0)))      // zero-op batch
	f.Add(taggedFrame(opClientMPut, 14, binary.BigEndian.AppendUint16(nil, 0xffff))) // oversized count
	// A client write with a forward epoch appended is refused as malformed:
	// only the forward role carries an epoch.
	epochTail := []byte{0, 0, 0, 0, 0, 0, 0, 1}
	f.Add(taggedFrame(opClientPut, 15, append(appendClientWrite(nil, "seeded", "v", false), epochTail...)))
	f.Add(taggedFrame(opClientDelete, 16, append(appendClientWrite(nil, "k", "", true), epochTail...)))
	f.Add(taggedFrame(opClientPut, 17, append(appendClientWrite(nil, "k", "v", false), 1, 2, 3))) // trailing junk
	f.Fuzz(func(t *testing.T, data []byte) {
		n := fuzzNode()
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			tag, _, payload, err := readTaggedFrame(br)
			if err != nil {
				return
			}
			// Coerce every opcode into the client range so the fuzzer spends
			// its budget on the client dispatch path, not the peer ops.
			op := opClientPut + tag%(opClientMGet-opClientPut+1)
			out := getBuf(64)
			status, resp := n.handleClientOp(op, payload, out[:0])
			if status != statusClientOK && status != statusClientErr {
				t.Fatalf("client dispatcher returned status %d", status)
			}
			epoch, body, err := decodeClientFrame(status, resp)
			if status == statusClientOK {
				if err != nil {
					t.Fatalf("OK response failed to decode: %v", err)
				}
				switch op {
				case opClientPut, opClientDelete:
					if _, err := decodeClientPutBody(body); err != nil {
						t.Fatalf("put response body failed to decode: %v", err)
					}
				case opClientGet:
					if _, err := decodeClientGetBody(body); err != nil {
						t.Fatalf("get response body failed to decode: %v", err)
					}
				case opClientMPut:
					if _, err := decodeClientMPutBody(body); err != nil {
						t.Fatalf("mput response body failed to decode: %v", err)
					}
				case opClientMGet:
					if _, err := decodeClientMGetBody(body); err != nil {
						t.Fatalf("mget response body failed to decode: %v", err)
					}
				}
			} else {
				ce, ok := err.(*ClientError)
				if !ok || ce.Msg == "" {
					t.Fatalf("error frame decoded to %v (want *ClientError with message)", err)
				}
			}
			_ = epoch
			putBuf(payload)
			putBuf(out)
		}
	})
}

// FuzzClientFrameRoundTrip pins the client response codecs: any response
// must survive encode → frame-split → decode bit-exactly (CoordMs
// compared by bits so NaN payloads round-trip too), and the body decoders
// must reject arbitrary bytes without panicking.
func FuzzClientFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(7), int64(12345), 1.5, int32(2), "value", true, byte(CodeUnavailable), "server: replica down", uint64(0))
	f.Add(uint64(0), uint64(0), int64(-1), math.Inf(1), int32(-1), "", false, byte(0), "", uint64(0))
	// Forwarded writes: the forwarder's ring epoch leads the forward frame.
	f.Add(uint64(3), uint64(9), int64(1), 0.25, int32(1), "fwd-value", false, byte(0), "fwd-key", uint64(3))
	f.Add(uint64(3), uint64(9), int64(1), 0.25, int32(1), "", true, byte(0), "fwd-key", uint64(1<<63))
	f.Fuzz(func(t *testing.T, epoch, seq uint64, committed int64, coordMs float64, node int32, value string, found bool, code byte, msg string, fwdEpoch uint64) {
		// Write requests: msg doubles as the key, found as the tombstone
		// flag. Client deletes carry no value on the wire; a forwarded
		// write carries its value and the forwarder's epoch.
		if len(msg) <= 0xffff {
			tombstone := found
			wantValue := value
			if tombstone {
				wantValue = ""
			}
			req := appendClientWrite(nil, msg, value, tombstone)
			k, v, ok := decodeClientWrite(req, tombstone)
			if !ok || k != msg || v != wantValue {
				t.Fatalf("write request round trip: %q %q ok=%v, want %q %q", k, v, ok, msg, wantValue)
			}
			if _, _, ok := decodeClientWrite(binary.BigEndian.AppendUint64(req, fwdEpoch), tombstone); ok {
				t.Fatal("client write with a trailing epoch decoded")
			}
			freq := appendForwardWrite(nil, msg, value, tombstone, fwdEpoch)
			k, v, tomb, e, ok := decodeForwardWrite(freq)
			if !ok || k != msg || v != value || tomb != tombstone || e != fwdEpoch {
				t.Fatalf("forward request round trip: %q %q %v %d ok=%v, want %q %q %v %d",
					k, v, tomb, e, ok, msg, value, tombstone, fwdEpoch)
			}
		}

		pr := PutResponse{Seq: seq, CommittedUnixNano: committed, CoordMs: coordMs, Node: int(node)}
		pb := appendClientPutResponse(nil, epoch, pr)
		gotEpoch, body, err := decodeClientFrame(statusClientOK, pb)
		if err != nil || gotEpoch != epoch {
			t.Fatalf("put frame split: epoch %d->%d err=%v", epoch, gotEpoch, err)
		}
		gotPut, err := decodeClientPutBody(body)
		if err != nil {
			t.Fatalf("put body decode: %v", err)
		}
		if gotPut.Seq != pr.Seq || gotPut.CommittedUnixNano != pr.CommittedUnixNano ||
			math.Float64bits(gotPut.CoordMs) != math.Float64bits(pr.CoordMs) || gotPut.Node != pr.Node {
			t.Fatalf("put round trip changed response: %+v vs %+v", gotPut, pr)
		}

		gr := GetResponse{Found: found, Seq: seq, Value: value, CoordMs: coordMs, Node: int(node)}
		gb := appendClientGetBody(binary.BigEndian.AppendUint64(nil, epoch), found, seq, coordMs, int(node), []byte(value))
		gotEpoch, body, err = decodeClientFrame(statusClientOK, gb)
		if err != nil || gotEpoch != epoch {
			t.Fatalf("get frame split: epoch %d->%d err=%v", epoch, gotEpoch, err)
		}
		gotGet, err := decodeClientGetBody(body)
		if err != nil {
			t.Fatalf("get body decode: %v", err)
		}
		if gotGet.Found != gr.Found || gotGet.Seq != gr.Seq || gotGet.Value != gr.Value ||
			math.Float64bits(gotGet.CoordMs) != math.Float64bits(gr.CoordMs) || gotGet.Node != gr.Node {
			t.Fatalf("get round trip changed response: %+v vs %+v", gotGet, gr)
		}

		eb := appendClientError(nil, epoch, code, msg)
		gotEpoch, _, err = decodeClientFrame(statusClientErr, eb)
		if gotEpoch != epoch {
			t.Fatalf("error frame epoch %d->%d", epoch, gotEpoch)
		}
		ce, ok := err.(*ClientError)
		if !ok || ce.Code != code || ce.Msg != msg {
			t.Fatalf("error round trip: %v (want code=%d msg=%q)", err, code, msg)
		}

		// The decoders must fail cleanly on arbitrary bytes (never panic,
		// never read out of bounds).
		raw := []byte(msg)
		decodeClientPutBody(raw)
		decodeClientGetBody(raw)
		decodeClientWrite(raw, found)
		decodeForwardWrite(raw)
		decodeClientError(raw)
		decodeClientFrame(code, raw)
	})
}

// FuzzClientBatchFrameRoundTrip pins the batched-op codecs: a request
// encoded the way BinClient.MPut/MGet does must decode back op for op, and
// batch response bodies (mixed success and per-op error verdicts) must
// survive encode → frame-split → decode bit-exactly. The decoders must
// also reject arbitrary bytes without panicking.
func FuzzClientBatchFrameRoundTrip(f *testing.F) {
	f.Add(uint64(3), "k1", "v1", true, true, uint64(9), 1.25, int32(2), byte(CodeQuorumFailed), "server: write quorum not reached")
	f.Add(uint64(0), "", "", false, false, uint64(0), math.Inf(-1), int32(-1), byte(CodeUnavailable), "")
	f.Fuzz(func(t *testing.T, epoch uint64, key, value string, found, tomb bool, seq uint64, coordMs float64, node int32, code byte, msg string) {
		if len(key) > 1024 {
			key = key[:1024] // string16 carries at most 64 KiB; keep keys key-sized
		}
		if len(msg) > 1024 {
			msg = msg[:1024]
		}
		if code == 0 {
			code = CodeInternal // verdict 0 means success on the wire
		}

		// Request round trips: MPut ops and MGet keys.
		req := binary.BigEndian.AppendUint16(nil, 2)
		var flags byte
		if tomb {
			flags = batchFlagTombstone
		}
		req = appendString32(append(appendString16(req, key), flags), value)
		req = appendString32(append(appendString16(req, key+"2"), 0), "")
		ops, oe := decodeBatchPutOps(&decoder{b: req})
		if oe != nil {
			t.Fatalf("mput request decode: %v", oe.msg)
		}
		if len(ops) != 2 || ops[0].Key != key || ops[0].Value != value || ops[0].Tombstone != tomb ||
			ops[1].Key != key+"2" || ops[1].Tombstone {
			t.Fatalf("mput request round trip changed ops: %+v", ops)
		}
		kreq := appendString16(appendString16(binary.BigEndian.AppendUint16(nil, 2), key), key+"2")
		keys, oe := decodeBatchKeys(&decoder{b: kreq})
		if oe != nil {
			t.Fatalf("mget request decode: %v", oe.msg)
		}
		if len(keys) != 2 || string(keys[0]) != key || string(keys[1]) != key+"2" {
			t.Fatalf("mget request round trip changed keys: %v", keys)
		}

		// Response round trips: one success verdict, one error verdict.
		pr := PutResponse{Seq: seq, CommittedUnixNano: int64(seq) - 1, CoordMs: coordMs, Node: int(node)}
		pb := appendClientMPutResponse(nil, epoch, []batchPutOut{
			{pr: pr},
			{oe: &opError{code: code, msg: msg}},
		})
		gotEpoch, body, err := decodeClientFrame(statusClientOK, pb)
		if err != nil || gotEpoch != epoch {
			t.Fatalf("mput frame split: epoch %d->%d err=%v", epoch, gotEpoch, err)
		}
		prs, err := decodeClientMPutBody(body)
		if err != nil || len(prs) != 2 {
			t.Fatalf("mput body decode: %v (%d results)", err, len(prs))
		}
		if got := prs[0].Resp; prs[0].Err != nil || got.Seq != pr.Seq || got.CommittedUnixNano != pr.CommittedUnixNano ||
			math.Float64bits(got.CoordMs) != math.Float64bits(pr.CoordMs) || got.Node != pr.Node {
			t.Fatalf("mput round trip changed response: %+v vs %+v", prs[0], pr)
		}
		if prs[1].Err == nil || prs[1].Err.Code != code || prs[1].Err.Msg != msg {
			t.Fatalf("mput round trip changed verdict: %+v (want code=%d msg=%q)", prs[1].Err, code, msg)
		}

		gr := GetResponse{Found: found, Seq: seq, Value: value, CoordMs: coordMs, Node: int(node)}
		gb := binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint64(nil, epoch), 2)
		gb = appendClientGetBody(append(gb, 0), found, seq, coordMs, int(node), []byte(value))
		gb = appendVerdictErr(gb, &opError{code: code, msg: msg})
		gotEpoch, body, err = decodeClientFrame(statusClientOK, gb)
		if err != nil || gotEpoch != epoch {
			t.Fatalf("mget frame split: epoch %d->%d err=%v", epoch, gotEpoch, err)
		}
		grs, err := decodeClientMGetBody(body)
		if err != nil || len(grs) != 2 {
			t.Fatalf("mget body decode: %v (%d results)", err, len(grs))
		}
		if got := grs[0].Resp; grs[0].Err != nil || got.Found != gr.Found || got.Seq != gr.Seq || got.Value != gr.Value ||
			math.Float64bits(got.CoordMs) != math.Float64bits(gr.CoordMs) || got.Node != gr.Node {
			t.Fatalf("mget round trip changed response: %+v vs %+v", grs[0], gr)
		}
		if grs[1].Err == nil || grs[1].Err.Code != code || grs[1].Err.Msg != msg {
			t.Fatalf("mget round trip changed verdict: %+v (want code=%d msg=%q)", grs[1].Err, code, msg)
		}

		// The decoders must fail cleanly on arbitrary bytes.
		raw := []byte(msg)
		decodeClientMPutBody(raw)
		decodeClientMGetBody(raw)
		decodeBatchPutOps(&decoder{b: raw})
		decodeBatchKeys(&decoder{b: raw})
	})
}

// FuzzVersionRoundTrip pins the version codec: whatever bytes come in,
// decoding never panics; and any version that decodes cleanly re-encodes
// to an equivalent value.
func FuzzVersionRoundTrip(f *testing.F) {
	f.Add(encodeVersion(nil, kvstore.Version{Key: "k", Seq: 1, Value: "v"}))
	f.Add(encodeVersion(nil, kvstore.Version{Key: "", Seq: 0, Value: ""}))
	f.Add([]byte{0, 1, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &decoder{b: data}
		v := d.version()
		if d.err != nil {
			return
		}
		d2 := &decoder{b: encodeVersion(nil, v)}
		v2 := d2.version()
		if d2.err != nil {
			t.Fatalf("re-decode of re-encoded version failed: %v", d2.err)
		}
		if v.Key != v2.Key || v.Seq != v2.Seq || v.Value != v2.Value {
			t.Fatalf("round trip changed version: %+v vs %+v", v, v2)
		}
	})
}

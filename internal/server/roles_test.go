package server

// Role coverage: a connection's hello fixes which opcode table serves it,
// and an opcode of another role is refused at once — statusErr on a peer
// connection, CodeBadRequest on a client or forward one — without
// touching replica state. TestGoldenFrames pins the exact request bytes of
// every opcode, hellos included, so a refactor of the transport cannot
// change the wire unnoticed.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"pbs/internal/kvstore"
	"pbs/internal/ring"
)

func TestRoleRefusal(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := c.Nodes[0]
	// A key node 0 does not coordinate: a client write tagged with a newer
	// forward epoch once held a serving worker for a second here, waiting
	// for a ring view that never arrives.
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("role-%d", i); n.Membership().Coordinator(k) != n.ID() {
			key = k
		}
	}
	epochTail := binary.BigEndian.AppendUint64(nil, n.RingEpoch()+1)
	// A replica version far above any coordinator's seq: installed, it
	// would shadow every later write to its key.
	shadow := kvstore.Version{Key: key, Seq: 1 << 60, Value: "shadow"}
	shadows := []kvstore.Version{shadow}
	put, del := BatchPutOp{Key: key, Value: "v"}, BatchPutOp{Key: key, Tombstone: true}

	cases := []struct {
		name    string
		role    role
		op      byte
		payload []byte
	}{
		{"forward-tagged client put", roleClient, opClientMPut, append(oneEntry(appendPutEntry(nil, put)), epochTail...)},
		{"forward-tagged client delete", roleClient, opClientMPut, append(oneEntry(appendPutEntry(nil, del)), epochTail...)},
		{"retired single-key put on a client connection", roleClient, retiredClientPut, appendString32(appendString16(nil, key), "v")},
		{"replica apply on a client connection", roleClient, opApply, appendApply(nil, shadows)},
		{"hinted apply on a client connection", roleClient, opApplyHint, appendHintedApply(nil, 1, shadow)},
		{"forwarded write on a client connection", roleClient, opForwardWrite, appendForwardWrite(nil, key, "v", false, n.RingEpoch()+1)},
		{"client put on a peer connection", rolePeer, opClientMPut, oneEntry(appendPutEntry(nil, put))},
		{"forwarded write on a peer connection", rolePeer, opForwardWrite, appendForwardWrite(nil, key, "v", false, n.RingEpoch())},
		{"replica apply on a forward connection", roleForward, opApply, appendApply(nil, shadows)},
		{"retired batched apply on a peer connection", rolePeer, retiredApplyBatch, appendApply(nil, shadows)},
		{"client put on a forward connection", roleForward, opClientMPut, oneEntry(appendPutEntry(nil, put))},
		{"gossip on a forward connection", roleForward, opGossip, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mc, err := dialRole(n.InternalAddr(), tc.role)
			if err != nil {
				t.Fatal(err)
			}
			defer mc.teardown(errMuxClosed)
			start := time.Now()
			status, resp, err := mc.call(tc.op, append(getBuf(len(tc.payload))[:0], tc.payload...))
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			defer putBuf(resp)
			if elapsed > 100*time.Millisecond {
				t.Errorf("refusal took %v, want under 100ms", elapsed)
			}
			if tc.role == rolePeer {
				if status != statusErr || len(resp) == 0 {
					t.Fatalf("peer connection answered op %d with status %d %q, want statusErr", tc.op, status, resp)
				}
				return
			}
			if _, _, err := decodeClientFrame(status, resp); clientCode(err) != CodeBadRequest {
				t.Fatalf("op %d answered %v (status %d), want CodeBadRequest", tc.op, err, status)
			}
		})
	}

	t.Run("non-hello v1 frames", func(t *testing.T) {
		conn, err := net.Dial("tcp", n.InternalAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		for _, op := range []byte{opApply, opPing, opClientMPut, opForwardWrite} {
			payload := appendApply(nil, shadows)
			if op == opClientMPut {
				payload = oneEntry(appendPutEntry(nil, put))
			}
			if err := writeFrame(bw, op, payload); err != nil {
				t.Fatal(err)
			}
			status, resp, err := readFrame(br)
			if err != nil {
				t.Fatal(err)
			}
			if status != statusErr {
				t.Fatalf("v1 op %d before a hello answered status %d %q, want statusErr", op, status, resp)
			}
		}
	})

	t.Run("oversized pre-hello frame", func(t *testing.T) {
		conn, err := net.Dial("tcp", n.InternalAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Only the header goes out: the node must drop the connection
		// rather than wait to read (and allocate) the announced payload.
		hdr := binary.BigEndian.AppendUint32([]byte{opPing}, maxFrame)
		if _, err := conn.Write(hdr); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("read after an oversized pre-hello header: %v, want the connection closed", err)
		}
	})

	for _, node := range c.Nodes {
		if v, found := node.getLocal(key); found {
			t.Fatalf("node %d holds %q at seq %d after only refused frames", node.ID(), key, v.Seq)
		}
	}
}

// goldenRecorder accepts connections of any role and records, per
// connection, the raw bytes of its hello and of its first request, which
// it answers with statusErr so the caller returns at once.
func goldenRecorder(t *testing.T) (addr string, frames <-chan [2][]byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	out := make(chan [2][]byte, 1)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				// The caller sends nothing past a frame until it is answered,
				// so the tee holds exactly one frame at each snapshot.
				var raw bytes.Buffer
				br := bufio.NewReader(ioTee{c, &raw})
				bw := bufio.NewWriter(c)
				_, payload, err := readFrame(br)
				if err != nil || len(payload) != 1 {
					return
				}
				hello := bytes.Clone(raw.Bytes())
				raw.Reset()
				reply := binary.BigEndian.AppendUint64(append([]byte{payload[0]}, 0, 0, 0, 0), 1)
				if writeFrame(bw, statusOK, reply) != nil {
					return
				}
				_, id, req, err := readTaggedFrame(br)
				if err != nil {
					return
				}
				putBuf(req)
				out <- [2][]byte{hello, bytes.Clone(raw.Bytes())}
				writeTaggedFrame(bw, statusErr, id, []byte("golden"))
				bw.Flush()
			}(c)
		}
	}()
	return ln.Addr().String(), out
}

// ioTee copies everything read from r into w.
type ioTee struct {
	r net.Conn
	w *bytes.Buffer
}

func (t ioTee) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.w.Write(p[:n])
	return n, err
}

// The opcodes of protocol 3's batched legs, retired when every apply and
// get became a list: a peer connection refuses them.
const (
	retiredApplyBatch byte = 22
	retiredGetBatch   byte = 23
)

// The opcodes of client protocol 1's single-key put, delete and get,
// retired when a single-key operation became a list of one: a client
// connection refuses them.
const (
	retiredClientPut    byte = 14
	retiredClientDelete byte = 15
	retiredClientGet    byte = 16
)

// TestGoldenFrames pins one request frame per opcode, every role
// included: the exact bytes the real callers (peer, BinClient) put on the
// wire for fixed inputs, each on a fresh connection (request id 1), after
// the hello of that connection's role. An apply and a get are pinned with
// one entry and with two, and so are a client write and read list: a
// single-key Put, Delete or Get is a list of one.
func TestGoldenFrames(t *testing.T) {
	addr, frames := goldenRecorder(t)
	ver := kvstore.Version{Key: "k", Seq: 7, Value: "v"}
	del := kvstore.Version{Key: "d", Seq: 8, Tombstone: true}
	wantHello := map[role]string{
		rolePeer:    "0c0000000104",
		roleClient:  "0d0000000102",
		roleForward: "180000000104",
	}
	rows := []struct {
		op   byte
		role role
		call func(p *peer, bc *BinClient)
		want string
	}{
		{opApply, rolePeer, func(p *peer, _ *BinClient) { applyOne(p, ver) },
			"01" + "0000000000000001" + "00000015" + "0001" + "00016b" + "0000000000000007" + "00" + "0000000176" + "0000"},
		{opApply, rolePeer, func(p *peer, _ *BinClient) { p.Apply([]kvstore.Version{ver, del}, make([]applyAck, 2)) },
			"01" + "0000000000000001" + "00000027" + "0002" +
				"00016b" + "0000000000000007" + "00" + "0000000176" + "0000" +
				"000164" + "0000000000000008" + "01" + "00000000" + "0000"},
		{opGet, rolePeer, func(p *peer, _ *BinClient) { p.Get([][]byte{[]byte("k")}, make([]readResp, 1)) },
			"02" + "0000000000000001" + "00000005" + "0001" + "00016b"},
		{opGet, rolePeer, func(p *peer, _ *BinClient) {
			p.Get([][]byte{[]byte("k"), []byte("d")}, make([]readResp, 2))
		},
			"02" + "0000000000000001" + "00000008" + "0002" + "00016b" + "000164"},
		{opTree, rolePeer, func(p *peer, _ *BinClient) { p.MerkleNodes(4) },
			"03" + "0000000000000001" + "00000001" + "04"},
		{opBucket, rolePeer, func(p *peer, _ *BinClient) { p.BucketVersions(4, []int{1, 9}) },
			"04" + "0000000000000001" + "0000000b" + "04" + "0002" + "00000001" + "00000009"},
		{opPing, rolePeer, func(p *peer, _ *BinClient) { p.Ping() },
			"05" + "0000000000000001" + "00000000"},
		{opApplyHint, rolePeer, func(p *peer, _ *BinClient) { p.ApplyHinted(ver, 2) },
			"06" + "0000000000000001" + "00000017" + "00000002" + "00016b" + "0000000000000007" + "00" + "0000000176" + "0000"},
		{opJoin, rolePeer, func(p *peer, _ *BinClient) { p.Join("http://h:1", "h:2") },
			"07" + "0000000000000001" + "00000011" + "000a" + hex.EncodeToString([]byte("http://h:1")) + "0003" + hex.EncodeToString([]byte("h:2"))},
		{opMembership, rolePeer, func(p *peer, _ *BinClient) { p.ExchangeMembership([]byte("m")) },
			"08" + "0000000000000001" + "00000001" + "6d"},
		{opStreamRange, rolePeer, func(p *peer, _ *BinClient) {
			p.StreamRange(streamRangeRequest{requester: ring.Member{ID: 3, HTTPAddr: "http://h:1", InternalAddr: "h:2"}, cursor: "c", max: 8})
		}, "09" + "0000000000000001" + "0000001a" + "00000003" + "000a" + hex.EncodeToString([]byte("http://h:1")) +
			"0003" + hex.EncodeToString([]byte("h:2")) + "0001" + "63" + "0008"},
		{opGossip, rolePeer, func(p *peer, _ *BinClient) { p.Gossip([]byte("g")) },
			"0a" + "0000000000000001" + "00000001" + "67"},
		{opConfigLog, rolePeer, func(p *peer, _ *BinClient) { p.ConfigRPC([]byte("c")) },
			"0b" + "0000000000000001" + "00000001" + "63"},
		{opClientMPut, roleClient, func(_ *peer, bc *BinClient) { bc.Put("k", "v") },
			"14" + "0000000000000001" + "0000000b" + "0001" + "00016b" + "00" + "0000000176"},
		{opClientMPut, roleClient, func(_ *peer, bc *BinClient) { bc.Delete("k") },
			"14" + "0000000000000001" + "0000000a" + "0001" + "00016b" + "01" + "00000000"},
		{opClientMGet, roleClient, func(_ *peer, bc *BinClient) { bc.Get("k") },
			"15" + "0000000000000001" + "00000005" + "0001" + "00016b"},
		{opClientConfig, roleClient, func(_ *peer, bc *BinClient) { bc.Config() },
			"11" + "0000000000000001" + "00000000"},
		{opClientStats, roleClient, func(_ *peer, bc *BinClient) { bc.Stats() },
			"12" + "0000000000000001" + "00000000"},
		{opClientWARS, roleClient, func(_ *peer, bc *BinClient) { bc.WARS() },
			"13" + "0000000000000001" + "00000000"},
		{opClientMPut, roleClient, func(_ *peer, bc *BinClient) {
			mput(bc, []BatchPutOp{{Key: "k", Value: "v"}, {Key: "d", Tombstone: true}})
		}, "14" + "0000000000000001" + "00000013" + "0002" + "00016b" + "00" + "0000000176" + "000164" + "01" + "00000000"},
		{opClientMGet, roleClient, func(_ *peer, bc *BinClient) { mget(bc, []string{"k", "d"}) },
			"15" + "0000000000000001" + "00000008" + "0002" + "00016b" + "000164"},
		{opForwardWrite, roleForward, func(p *peer, _ *BinClient) { p.ForwardWrite("k", "v", false, 5) },
			"19" + "0000000000000001" + "00000011" + "0000000000000005" + "00016b" + "00" + "0000000176"},
	}
	seen := map[byte]bool{}
	for _, row := range rows {
		seen[row.op] = true
		p, bc := newPeer(addr), NewBinClient(addr)
		row.call(p, bc)
		p.close()
		bc.Close()
		var got [2][]byte
		select {
		case got = <-frames:
		case <-time.After(5 * time.Second):
			t.Fatalf("op %d: no request recorded", row.op)
		}
		if h := hex.EncodeToString(got[0]); h != wantHello[row.role] {
			t.Errorf("op %d: hello %s, want %s", row.op, h, wantHello[row.role])
		}
		if h := hex.EncodeToString(got[1]); h != row.want {
			t.Errorf("op %d: request frame\n got %s\nwant %s", row.op, h, row.want)
		}
	}
	for _, h := range hellos {
		seen[h.op] = true
	}
	for op := byte(1); op <= opForwardWrite; op++ {
		retired := op == retiredApplyBatch || op == retiredGetBatch ||
			op == retiredClientPut || op == retiredClientDelete || op == retiredClientGet
		if !seen[op] && !retired {
			t.Errorf("op %d has no golden frame", op)
		}
	}
}

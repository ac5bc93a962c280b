package server

// Binary client protocol coverage: hello/version negotiation, typed
// round-trips against a live cluster, and the failure modes the client
// retry discipline is built on — a connection that dies with calls in
// flight fails each exactly once, the next call transparently redials,
// crashed nodes answer typed retryable frames, and quorum verdicts come
// back final (CodeQuorumFailed, not something a client should retry).

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startStallClientServer accepts the client hello and then reads tagged
// frames forever without responding — calls against it only complete
// through connection teardown.
func startStallClientServer(t *testing.T) (addr string, received *atomic.Int64, killConns func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	received = new(atomic.Int64)
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				bw := bufio.NewWriter(c)
				if !answerHello(br, bw, roleClient) {
					return
				}
				for {
					if _, _, payload, err := readTaggedFrame(br); err != nil {
						return
					} else {
						putBuf(payload)
						received.Add(1)
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String(), received, func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		conns = nil
	}
}

// TestBinClientRoundTrip drives every client op end to end against a live
// cluster through one node's internal address.
func TestBinClientRoundTrip(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bc := NewBinClient(c.Nodes[0].selfInternal)
	defer bc.Close()

	pr, epoch, err := bc.Put("bin-key", "bin-value")
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if pr.Seq == 0 || epoch != 1 {
		t.Fatalf("put: seq=%d epoch=%d", pr.Seq, epoch)
	}
	gr, epoch, err := bc.Get("bin-key")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !gr.Found || gr.Value != "bin-value" || gr.Seq != pr.Seq || epoch != 1 {
		t.Fatalf("get: %+v epoch=%d (want seq %d)", gr, epoch, pr.Seq)
	}
	if gr, _, err = bc.Get("missing-key"); err != nil || gr.Found {
		t.Fatalf("get missing: found=%v err=%v", gr.Found, err)
	}
	if _, _, err := bc.Delete("bin-key"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if gr, _, err = bc.Get("bin-key"); err != nil || gr.Found {
		t.Fatalf("get after delete: found=%v err=%v", gr.Found, err)
	}

	cfg, _, err := bc.Config()
	if err != nil || len(cfg.Members) != 3 {
		t.Fatalf("config: %+v err=%v", cfg, err)
	}
	st, _, err := bc.Stats()
	if err != nil || st.Applied == 0 {
		t.Fatalf("stats: applied=%d err=%v", st.Applied, err)
	}
	if _, _, err := bc.WARS(); err != nil {
		t.Fatalf("wars: %v", err)
	}
}

// TestBinClientPipelinedCalls hammers one BinClient from many goroutines:
// responses must match their own keys (no cross-call buffer aliasing on
// the pooled frame path; run under -race in CI).
func TestBinClientPipelinedCalls(t *testing.T) {
	c, err := StartLocal(1, Params{N: 1, R: 1, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bc := NewBinClient(c.Nodes[0].selfInternal)
	defer bc.Close()

	const workers = 16
	const opsPerWorker = 100
	var wg sync.WaitGroup
	wg.Add(workers)
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				key := fmt.Sprintf("k-%d-%d", w, i)
				val := fmt.Sprintf("v-%d-%d", w, i)
				if _, _, err := bc.Put(key, val); err != nil {
					errCh <- fmt.Errorf("put %s: %w", key, err)
					return
				}
				gr, _, err := bc.Get(key)
				if err != nil {
					errCh <- fmt.Errorf("get %s: %w", key, err)
					return
				}
				if !gr.Found || gr.Value != val {
					errCh <- fmt.Errorf("get %s returned found=%v val=%q (want %q): aliasing?",
						key, gr.Found, gr.Value, val)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestBinClientTeardownFailsInFlightExactlyOnce pins the restart-mid-
// pipeline contract for client connections: every call in flight when the
// connection dies returns exactly one error — none hang, none complete
// twice.
func TestBinClientTeardownFailsInFlightExactlyOnce(t *testing.T) {
	addr, received, killConns := startStallClientServer(t)
	bc := NewBinClient(addr)
	defer bc.Close()

	const inFlight = 32
	var wg sync.WaitGroup
	errs := make([]error, inFlight)
	wg.Add(inFlight)
	for i := 0; i < inFlight; i++ {
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = bc.Get(fmt.Sprintf("k%d", i))
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for received.Load() < inFlight {
		if time.Now().After(deadline) {
			t.Fatalf("server saw %d/%d requests", received.Load(), inFlight)
		}
		time.Sleep(time.Millisecond)
	}
	killConns()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight client calls hung after connection teardown")
	}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("call %d completed successfully on a dead connection", i)
		}
	}
}

// TestBinClientRedialsAfterTeardown pins the resume half of the restart
// contract: after its connections are torn down underneath it (server
// restart, idle timeout), the next calls transparently redial.
func TestBinClientRedialsAfterTeardown(t *testing.T) {
	c, err := StartLocal(1, Params{N: 1, R: 1, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bc := NewBinClient(c.Nodes[0].selfInternal)
	defer bc.Close()

	if _, _, err := bc.Put("k", "v1"); err != nil {
		t.Fatalf("first put: %v", err)
	}
	bc.slots.mu.Lock()
	for _, mc := range bc.slots.conns {
		if mc != nil {
			mc.teardown(errMuxClosed)
		}
	}
	bc.slots.mu.Unlock()
	for i := 0; i < 2*muxSlots; i++ {
		if gr, _, err := bc.Get("k"); err != nil || !gr.Found {
			t.Fatalf("get %d after teardown: found=%v err=%v", i, gr.Found, err)
		}
	}
}

// TestClosedNodeCutsClientConnections: closing a node cuts the client
// connections it accepted, so a client holding one sees a transport
// failure (which its routing treats as retryable and walks past) rather
// than the closed node answering with a quorum verdict it reached with its
// peer connections already torn down.
func TestClosedNodeCutsClientConnections(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bc := NewBinClient(c.Nodes[0].selfInternal)
	defer bc.Close()

	if _, _, err := bc.Put("k", "v1"); err != nil {
		t.Fatalf("put: %v", err)
	}
	c.Nodes[0].Close()
	for i := 0; i < 2*muxSlots; i++ {
		_, _, err := bc.Get("k")
		if err == nil {
			t.Fatalf("get %d: a closed node answered", i)
		}
		var ce *ClientError
		if errors.As(err, &ce) {
			t.Fatalf("get %d: closed node answered %v, want its connection cut", i, err)
		}
	}
}

// TestBinClientFaultFrames pins the error taxonomy clients route on: a
// crashed node answers CodeUnavailable (retryable — walk to the next
// node), while a live coordinator that cannot reach its write quorum
// answers CodeQuorumFailed (the cluster's verdict; final).
func TestBinClientFaultFrames(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Crash node 1 and 2: node 0 stays live but cannot assemble W=2.
	c.Faults().Crash(1)
	c.Faults().Crash(2)

	bcDown := NewBinClient(c.Nodes[1].selfInternal)
	defer bcDown.Close()
	_, _, err = bcDown.Get("k")
	ce, ok := err.(*ClientError)
	if !ok || ce.Code != CodeUnavailable || !ce.Retryable() {
		t.Fatalf("crashed node answered %v (want retryable CodeUnavailable)", err)
	}

	// A key node 0 coordinates itself, so the verdict is its own (a key
	// owned by a crashed primary would fail the forward hop instead, which
	// is CodeUnavailable — worth routing around, unlike this).
	key := "quorum-key"
	for i := 0; c.Membership().Coordinator(key) != 0; i++ {
		key = fmt.Sprintf("quorum-key-%d", i)
	}
	bc := NewBinClient(c.Nodes[0].selfInternal)
	defer bc.Close()
	_, _, err = bc.Put(key, "v")
	ce, ok = err.(*ClientError)
	if !ok || ce.Code != CodeQuorumFailed || ce.Retryable() {
		t.Fatalf("quorum failure surfaced as %v (want final CodeQuorumFailed)", err)
	}
}

// TestClientHelloVersionNegotiation: a hello with an unsupported version
// is refused in v1 framing — the degraded client fails loudly instead of
// misframing — and the connection then serves only a hello: a peer op is
// refused too, and a supported hello still opens the connection.
func TestClientHelloVersionNegotiation(t *testing.T) {
	c, err := StartLocal(1, Params{N: 1, R: 1, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn, err := net.Dial("tcp", c.Nodes[0].selfInternal)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, opClientHello, []byte{99}); err != nil {
		t.Fatal(err)
	}
	status, resp, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if status != statusErr {
		t.Fatalf("version 99 hello accepted: status=%d %q", status, resp)
	}
	// After a refused hello only a hello is served: a ping is refused.
	if err := writeFrame(bw, opPing, nil); err != nil {
		t.Fatal(err)
	}
	if status, resp, err = readFrame(br); err != nil || status != statusErr {
		t.Fatalf("v1 ping after refused hello: status=%d %q err=%v, want refused", status, resp, err)
	}
	// A supported hello on the same connection is accepted.
	if err := writeFrame(bw, opClientHello, []byte{clientProtoVersion}); err != nil {
		t.Fatal(err)
	}
	if status, resp, err = readFrame(br); err != nil || status != statusOK || len(resp) != helloReplyLen {
		t.Fatalf("hello after a refused one: status=%d %q err=%v", status, resp, err)
	}

	// An accepting hello reports the node ID and current ring epoch.
	bc := NewBinClient(c.Nodes[0].selfInternal)
	defer bc.Close()
	if _, epoch, err := bc.Stats(); err != nil || epoch != 1 {
		t.Fatalf("stats after an accepted hello: epoch=%d err=%v", epoch, err)
	}
}

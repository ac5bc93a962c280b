package server

// Multiplexed transport failure-mode coverage: a peer that dies with RPCs
// in flight must fail every one of them exactly once (no hang, no double
// completion); pooled payload buffers must never alias across concurrent
// calls (this file runs under -race in CI); a torn-down mux connection
// must be transparently redialed; and the fault controller's per-leg
// drop/delay injection must keep working on the persistent-worker fan-out
// path.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbs/internal/kvstore"
)

// answerHello reads one hello frame for role r and accepts it the way a
// node does (version, node ID 0, ring epoch 1); false if the frame is not
// that hello or the connection failed.
func answerHello(br *bufio.Reader, bw *bufio.Writer, r role) bool {
	op, payload, err := readFrame(br)
	if err != nil || op != hellos[r].op || len(payload) != 1 {
		return false
	}
	reply := append([]byte{payload[0]}, 0, 0, 0, 0)
	reply = binary.BigEndian.AppendUint64(reply, 1)
	return writeFrame(bw, statusOK, reply) == nil
}

// startStallMux is a server that completes the peer hello and then reads
// tagged request frames forever without ever responding — in-flight calls
// against it only complete through connection teardown.
func startStallMux(t *testing.T) (addr string, received *atomic.Int64, killConns func()) {
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
				if !answerHello(br, bw, rolePeer) {
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

// TestMuxTeardownFailsInFlightExactlyOnce pins the restart-mid-flight
// contract: every RPC in flight when the connection dies returns exactly
// one error — none hang, none complete twice (a double completion would
// wedge teardown on the call's one-slot channel and show up here as a
// hang).
func TestMuxTeardownFailsInFlightExactlyOnce(t *testing.T) {
	addr, received, killConns := startStallMux(t)
	mc, err := dialRole(addr, rolePeer)
	if err != nil {
		t.Fatalf("dialRole: %v", err)
	}
	defer mc.teardown(errMuxClosed)

	const inFlight = 32
	var wg sync.WaitGroup
	errs := make([]error, inFlight)
	wg.Add(inFlight)
	for i := 0; i < inFlight; i++ {
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = mc.call(opPing, nil)
		}(i)
	}
	// Wait until the server has consumed every request frame, so all calls
	// are genuinely in flight when the connection dies.
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
		t.Fatal("in-flight calls hung after connection teardown")
	}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("call %d completed successfully on a dead connection", i)
		}
	}
	// The torn-down connection must fail new calls immediately.
	if _, _, err := mc.call(opPing, nil); err == nil {
		t.Fatal("call on torn-down connection succeeded")
	}
}

// TestMuxPeerRedialsTornDownConn pins the redial half of the stale
// connection contract: a connection torn down underneath the peer
// (idle timeout, server restart) must be transparently replaced on the
// next RPC, not surface as a replica failure.
func TestMuxPeerRedialsTornDownConn(t *testing.T) {
	c, err := StartLocal(1, Params{N: 1, R: 1, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := newPeer(c.Nodes[0].selfInternal)
	defer p.close()

	if err := p.Ping(); err != nil {
		t.Fatalf("first ping: %v", err)
	}
	p.legs.mu.Lock()
	for _, mc := range p.legs.conns {
		if mc != nil {
			mc.teardown(errMuxClosed)
		}
	}
	p.legs.mu.Unlock()
	for i := 0; i < 2*muxSlots; i++ {
		if err := p.Ping(); err != nil {
			t.Fatalf("ping %d after teardown: %v", i, err)
		}
	}
}

// TestMuxConcurrentCallsNoAliasing hammers one shared peer with
// concurrent Apply/Get calls for distinct keys and checks every
// response against its own key — pooled request and response buffers must
// never bleed between in-flight calls. Run under -race in CI.
func TestMuxConcurrentCallsNoAliasing(t *testing.T) {
	c, err := StartLocal(1, Params{N: 1, R: 1, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := newPeer(c.Nodes[0].selfInternal)
	defer p.close()

	const workers = 16
	const opsPerWorker = 200
	var wg sync.WaitGroup
	wg.Add(workers)
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				key := fmt.Sprintf("k-%d-%d", w, i)
				val := strings.Repeat(fmt.Sprintf("v-%d-%d.", w, i), 1+i%7)
				ver := kvstore.Version{Key: key, Seq: uint64(i + 1), Value: val}
				if err := applyOne(p, ver); err != nil {
					errCh <- fmt.Errorf("apply %s: %w", key, err)
					return
				}
				// The answer's key echo is checked by the decoder: an
				// answer for another key comes back as an error.
				var out [1]readResp
				if err := p.Get([][]byte{[]byte(key)}, out[:]); err != nil {
					errCh <- fmt.Errorf("get %s: %w", key, err)
					return
				}
				got := out[0]
				if !got.found || got.seq != ver.Seq || string(got.value) != val {
					errCh <- fmt.Errorf("get %s returned seq=%d val=%q (want val=%q): cross-call buffer aliasing?",
						key, got.seq, got.value, val)
					return
				}
				putBuf(got.buf)
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestWorkerPathFaultDropAndDelay verifies the fault controller still
// interposes per leg on the persistent-worker fan-out path (no latency
// model installed, so coordinators take the worker path): a 100% drop on
// one replica costs that leg but not the W=2 quorum, and an injected delay
// on a required leg shows up in the coordinator's commit latency.
func TestWorkerPathFaultDropAndDelay(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	put := func(key, val string) PutResponse {
		t.Helper()
		return binPut(t, c.Nodes[0], key, val)
	}

	// Drop every RPC to one non-coordinating replica: writes must still
	// commit at W=2 of 3, and the drops must be injected on the leg path.
	coordinator := c.Membership().Coordinator("drop-key")
	victim := (coordinator + 1) % 3
	c.Faults().SetDrop(victim, 1.0)
	before := c.Faults().Injected()
	for i := 0; i < 8; i++ {
		put("drop-key", fmt.Sprintf("v%d", i))
	}
	if got := c.Faults().Injected() - before; got == 0 {
		t.Fatal("no drops injected on the worker fan-out path")
	}
	c.Faults().SetDrop(victim, 0)

	// Delay one replica and require all three acks (W=3): the commit cannot
	// beat the injected leg delay.
	if err := c.SetQuorums(1, 3); err != nil {
		t.Fatal(err)
	}
	const delayMs = 30
	c.Faults().SetDelay(victim, delayMs)
	pr := put("delay-key", "v")
	if pr.CoordMs < delayMs {
		t.Fatalf("W=3 commit in %.2fms beat the %dms injected leg delay", pr.CoordMs, delayMs)
	}
}

// startSlowMux is a server that completes the peer hello and answers every
// tagged request with an empty statusOK payload after delay.
func startSlowMux(t *testing.T, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				bw := bufio.NewWriter(c)
				if !answerHello(br, bw, rolePeer) {
					return
				}
				var mu sync.Mutex
				for {
					_, id, payload, err := readTaggedFrame(br)
					if err != nil {
						return
					}
					putBuf(payload)
					time.AfterFunc(delay, func() {
						mu.Lock()
						defer mu.Unlock()
						if writeTaggedFrame(bw, statusOK, id, nil) == nil {
							bw.Flush()
						}
					})
				}
			}(c)
		}
	}()
	return ln.Addr().String()
}

// shortDeadlines are mux read deadlines scaled down so the deadline tests
// run in well under a second.
var shortDeadlines = muxDeadlines{rpc: 150 * time.Millisecond, idle: 5 * time.Second, rearm: 30 * time.Millisecond}

// TestMuxHungPeerFailsWithinTimeout: against a peer that never answers,
// every call fails within one rpc timeout of its own registration, even
// while later calls keep registering (each new call does not push the
// deadline on), and the connection is torn down.
func TestMuxHungPeerFailsWithinTimeout(t *testing.T) {
	addr, _, _ := startStallMux(t)
	mc, err := dialRoleWith(addr, rolePeer, shortDeadlines)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.teardown(errMuxClosed)
	const calls = 8
	var wg sync.WaitGroup
	late := make(chan string, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			_, _, err := mc.call(opPing, nil)
			if took := time.Since(start); err == nil || took > 2*shortDeadlines.rpc {
				late <- fmt.Sprintf("call %d: err=%v after %v", i, err, took)
			}
		}(i)
		time.Sleep(shortDeadlines.rpc / 4)
	}
	wg.Wait()
	close(late)
	for msg := range late {
		t.Error(msg)
	}
	if !mc.isDead() {
		t.Fatal("connection to a hung peer still open")
	}
}

// TestMuxIdleOutlivesBusyDeadline: a connection that goes idle with the
// busy deadline still armed is not torn down when that deadline passes —
// the reader starts an idle period — and serves the next call.
func TestMuxIdleOutlivesBusyDeadline(t *testing.T) {
	mc, err := dialRoleWith(startSlowMux(t, 0), rolePeer, shortDeadlines)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.teardown(errMuxClosed)
	for round := 0; round < 3; round++ {
		if _, _, err := mc.call(opPing, nil); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		time.Sleep(2 * shortDeadlines.rpc)
		if mc.isDead() {
			t.Fatalf("round %d: idle connection torn down at the busy deadline", round)
		}
	}
}

// TestMuxProgressKeepsBusyConnAlive: a connection that stays busy far
// longer than one rpc timeout lives on as long as responses keep arriving
// — the reader moves the deadline on with progress.
func TestMuxProgressKeepsBusyConnAlive(t *testing.T) {
	const delay = 40 * time.Millisecond
	mc, err := dialRoleWith(startSlowMux(t, delay), rolePeer, shortDeadlines)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.teardown(errMuxClosed)
	stop := time.Now().Add(5 * shortDeadlines.rpc)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ { // two callers overlap, so a call is always pending
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			time.Sleep(time.Duration(w) * delay / 2)
			for time.Now().Before(stop) {
				if _, _, err := mc.call(opPing, nil); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("busy connection failed while responses kept arriving: %v", err)
	}
}

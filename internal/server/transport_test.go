package server

// Stale-connection coverage for muxRPC, the one path every peer op takes
// (data legs and the control plane alike): a connection that died under
// an RPC (the replica paused, restarted, or an idle timeout fired) must
// not surface as a replica failure — the RPC retries once on a fresh
// connection. Failures with no live replica behind them must still
// propagate. frameEcho speaks just enough of the peer role to answer
// pings; the mux's own failure modes are covered in mux_test.go.

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// frameEcho is a minimal peer-role server: it accepts the peer hello and
// answers every tagged request with statusOK, tracking accepted
// connections so tests can kill them. While dropNext is set, the next
// request it reads closes its connection unanswered instead.
type frameEcho struct {
	ln       net.Listener
	requests atomic.Int64
	dropNext atomic.Bool

	mu    sync.Mutex
	conns []net.Conn
}

func startFrameEcho(t *testing.T) *frameEcho {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e := &frameEcho{ln: ln}
	t.Cleanup(func() { ln.Close(); e.killConns() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			e.mu.Lock()
			e.conns = append(e.conns, c)
			e.mu.Unlock()
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				bw := bufio.NewWriter(c)
				if !answerHello(br, bw, rolePeer) {
					return
				}
				for {
					_, id, payload, err := readTaggedFrame(br)
					if err != nil {
						return
					}
					putBuf(payload)
					e.requests.Add(1)
					if e.dropNext.CompareAndSwap(true, false) {
						return
					}
					if writeTaggedFrame(bw, statusOK, id, []byte{1}) != nil || bw.Flush() != nil {
						return
					}
				}
			}(c)
		}
	}()
	return e
}

// killConns closes every accepted connection, simulating a replica
// restart: the client's connections are now dead on the far side.
func (e *frameEcho) killConns() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.conns {
		c.Close()
	}
	e.conns = nil
}

func TestStalePooledConnRetriesOnFreshConn(t *testing.T) {
	e := startFrameEcho(t)
	p := newPeer(e.ln.Addr().String())
	defer p.close()

	// Open a connection, then kill the server side of it while it idles.
	if err := p.Ping(); err != nil {
		t.Fatalf("first rpc: %v", err)
	}
	e.killConns()
	time.Sleep(50 * time.Millisecond) // let the FIN/RST reach the client
	for i := 0; i < 2*muxSlots; i++ {
		if err := p.Ping(); err != nil {
			t.Fatalf("rpc %d after server-side conn reset: %v", i, err)
		}
	}

	// A connection that dies under the call itself — the request went out,
	// no answer comes back — is what the retry is for: without it this
	// surfaced as a spurious replica failure right after the replica was
	// back.
	before := e.requests.Load()
	e.dropNext.Store(true)
	if err := p.Ping(); err != nil {
		t.Fatalf("rpc whose connection died under it: %v", err)
	}
	if got := e.requests.Load() - before; got != 2 {
		t.Fatalf("server saw %d requests for one rpc, want 2 (the lost one and its retry)", got)
	}
}

func TestDownPeerStillFails(t *testing.T) {
	e := startFrameEcho(t)
	addr := e.ln.Addr().String()
	p := newPeer(addr)
	defer p.close()
	if err := p.Ping(); err != nil {
		t.Fatalf("first rpc: %v", err)
	}

	// A genuinely dead peer (listener gone, conns dead) must still error:
	// the retry dials fresh, fails, and propagates the failure.
	e.ln.Close()
	e.killConns()
	time.Sleep(50 * time.Millisecond)
	if err := p.Ping(); err == nil {
		t.Fatal("rpc to a dead peer succeeded")
	}
}

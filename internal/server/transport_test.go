package server

// v1 (pooled-connection) transport client regression coverage: a pooled
// connection that died while idling in the free list (the replica paused,
// restarted, or an idle timeout fired) must not surface as a replica
// failure — the RPC retries once on a fresh connection. Failures on
// freshly dialed connections are real and must still propagate. The v1
// pool is the control-plane carrier (membership, gossip, config log,
// anti-entropy), so these tests drive it directly with p.rpc: frameEcho
// speaks only v1. The v2 mux transport's failure modes are covered in
// mux_test.go.

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"
)

// frameEcho is a minimal protocol server: it answers every request frame
// with statusOK and tracks accepted connections so tests can kill them.
type frameEcho struct {
	ln net.Listener

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
				for {
					if _, _, err := readFrame(br); err != nil {
						return
					}
					if err := writeFrame(bw, statusOK, []byte{1}); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return e
}

// killConns closes every accepted connection, simulating a replica
// restart: the client's pooled connections are now dead on the far side.
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

	// Populate the pool, then kill the server side of the idle connection.
	if _, err := p.rpc(opPing, nil); err != nil {
		t.Fatalf("first rpc: %v", err)
	}
	e.killConns()
	time.Sleep(50 * time.Millisecond) // let the FIN/RST reach the client

	// Without the retry this surfaced as a spurious replica failure (EOF
	// or EPIPE on the stale pooled conn) right after the replica was back.
	for i := 0; i < 3; i++ {
		if _, err := p.rpc(opPing, nil); err != nil {
			t.Fatalf("rpc %d after server-side conn reset: %v", i, err)
		}
	}
}

func TestDownPeerStillFails(t *testing.T) {
	e := startFrameEcho(t)
	addr := e.ln.Addr().String()
	p := newPeer(addr)
	defer p.close()
	if _, err := p.rpc(opPing, nil); err != nil {
		t.Fatalf("first rpc: %v", err)
	}

	// A genuinely dead peer (listener gone, conns dead) must still error:
	// the stale-pool retry dials fresh, fails, and propagates the failure.
	e.ln.Close()
	e.killConns()
	time.Sleep(50 * time.Millisecond)
	if _, err := p.rpc(opPing, nil); err == nil {
		t.Fatal("rpc to a dead peer succeeded")
	}
}

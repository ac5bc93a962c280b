package server

// Multiplexed transport: the framing every connection speaks once its hello
// (transport.go) has fixed its role. The frame header carries a request ID
// so many RPCs share one connection:
//
//	frame: tag(u8) | id(u64) | len(u32) | payload
//
// where tag is the opcode on a request and the status byte on a response,
// and a response's id echoes its request's. Each client-side connection
// runs one writer loop (draining a submission channel, flushing only when
// it goes idle, so concurrent legs batch into single syscalls) and one
// reader loop (matching response ids against a pending-call table). A
// caller holds its connections in a connSlots: a small fixed set of one
// role to one address, dialed lazily by dialRole, the one place a hello is
// sent. The serving side (serveMux) runs one reader, one worker pool per
// connection and one writer.
//
// Failure semantics the mux tests pin: any reader/writer error tears the
// connection down and fails every in-flight call exactly once (each call is
// delivered either by the reader — which removes it from the pending table
// before completing it — or by teardown, which takes the whole table; a
// call is in exactly one of those sets). Idle connections carry a long read
// deadline; the call that makes a connection busy arms the short
// rpcTimeout deadline, and the reader pushes it on as responses arrive, so
// a hung peer fails all pending calls within one timeout instead of
// hanging the coordinator (readLoop has the details).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// muxSlots is the fixed set of connections a connSlots fans its calls
	// over (round robin). Two keeps a second pipe warm so one slow flush
	// never gates every call to that node.
	muxSlots = 2

	// muxIOBuf sizes the per-connection buffered reader/writer.
	muxIOBuf = 64 << 10

	// muxIdleDeadline is the read deadline on a mux connection with no
	// pending calls — long enough that an idle cluster does not churn
	// connections, finite so an abandoned socket cannot pin a goroutine
	// forever. The call that makes a connection busy re-arms the short
	// rpcTimeout deadline.
	muxIdleDeadline = 5 * time.Minute

	// muxRearmEvery is the least progress between two deadline re-arms by a
	// connection's reader: re-arming per response frame was a few percent
	// of a loaded node's CPU, and a deadline armed at most this long ago
	// still expires no later than one armed at the last frame.
	muxRearmEvery = time.Second

	// muxServerWorkers is the per-connection handler pool on the serving
	// side. Sized comfortably above the storage engine's group-commit batch
	// sweet spot so concurrent appliers on one connection still fill fsync
	// batches (see TestFsyncGroupCommitThroughput).
	muxServerWorkers = 32

	// muxServerQueue bounds the per-connection request/response channels.
	muxServerQueue = 256
)

var errMuxClosed = errors.New("server: mux connection closed")

// --- tagged framing ------------------------------------------------------

const taggedHdrLen = 13 // tag(1) + id(8) + len(4)

// writeTaggedFrame appends one tagged frame to w without flushing — the writer
// loops flush once their submission queue goes idle. The header goes out
// byte by byte: handing a stack array to Write's []byte parameter makes it
// escape (one malloc per frame), while WriteByte stays on the stack.
func writeTaggedFrame(w *bufio.Writer, tag byte, id uint64, payload []byte) error {
	var hdr [taggedHdrLen]byte
	hdr[0] = tag
	binary.BigEndian.PutUint64(hdr[1:], id)
	binary.BigEndian.PutUint32(hdr[9:], uint32(len(payload)))
	for _, b := range hdr {
		if err := w.WriteByte(b); err != nil {
			return err
		}
	}
	_, err := w.Write(payload)
	return err
}

// readTaggedFrame reads one tagged frame, returning its payload in a pooled
// buffer the caller must putBuf after decoding. The header is parsed in
// place via Peek/Discard — no escaping scratch array, no copy.
func readTaggedFrame(r *bufio.Reader) (tag byte, id uint64, payload []byte, err error) {
	hdr, err := r.Peek(taggedHdrLen)
	if err != nil {
		return 0, 0, nil, err
	}
	tag, id = hdr[0], binary.BigEndian.Uint64(hdr[1:])
	n := binary.BigEndian.Uint32(hdr[9:])
	if _, err = r.Discard(taggedHdrLen); err != nil {
		return 0, 0, nil, err
	}
	if n > maxFrame {
		return 0, 0, nil, fmt.Errorf("server: frame of %d bytes exceeds limit", n)
	}
	payload = getBuf(int(n))
	if _, err = io.ReadFull(r, payload); err != nil {
		putBuf(payload)
		return 0, 0, nil, err
	}
	return tag, id, payload, nil
}

// --- client side ---------------------------------------------------------

// muxResult is one call's completion: a response (status + pooled payload
// the caller releases after decode) or a transport error.
type muxResult struct {
	status  byte
	payload []byte
	err     error
}

type muxCall struct{ ch chan muxResult }

var muxCallPool = sync.Pool{
	New: func() any { return &muxCall{ch: make(chan muxResult, 1)} },
}

// muxWrite is one queued request frame. The writer loop owns payload and
// repools it after writing (or on teardown drain).
type muxWrite struct {
	op      byte
	id      uint64
	payload []byte
}

// muxDeadlines are a connection's read deadlines: rpc bounds how long a
// connection with calls pending may go without progress, idle how long one
// without may sit unused, and rearm is the least progress between reader
// re-arms.
type muxDeadlines struct{ rpc, idle, rearm time.Duration }

var defaultMuxDeadlines = muxDeadlines{rpc: rpcTimeout, idle: muxIdleDeadline, rearm: muxRearmEvery}

// muxConn is one multiplexed client connection: a writer loop, a reader
// loop, and a table of pending calls keyed by request id.
type muxConn struct {
	c    net.Conn
	wch  chan muxWrite
	done chan struct{} // closed by teardown
	dl   muxDeadlines

	mu      sync.Mutex
	pending map[uint64]*muxCall
	nextID  uint64
	nPend   int
	dead    bool
	deadErr error
	// The read deadline in force: when it was armed, when it expires, and
	// whether it is the idle one.
	armedAt, deadline time.Time
	idle              bool
}

// dialRole opens a connection to addr and sends the hello for role r; on
// an accepting reply the connection switches to tagged framing.
func dialRole(addr string, r role) (*muxConn, error) {
	return dialRoleWith(addr, r, defaultMuxDeadlines)
}

// dialRoleWith is dialRole with the given read deadlines.
func dialRoleWith(addr string, r role, dl muxDeadlines) (*muxConn, error) {
	c, err := net.DialTimeout("tcp", addr, rpcTimeout)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(c, muxIOBuf)
	br := bufio.NewReaderSize(c, muxIOBuf)
	h := hellos[r]
	c.SetDeadline(time.Now().Add(rpcTimeout))
	err = writeFrame(bw, h.op, []byte{h.version})
	var status byte
	var resp []byte
	if err == nil {
		status, resp, err = readFrame(br)
	}
	switch {
	case err != nil:
	case status != statusOK:
		err = fmt.Errorf("server: hello refused: %s", resp)
	case len(resp) != helloReplyLen || resp[0] != h.version:
		err = errors.New("server: malformed hello reply")
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	c.SetDeadline(time.Time{})
	mc := &muxConn{
		c:       c,
		wch:     make(chan muxWrite, muxServerQueue),
		done:    make(chan struct{}),
		dl:      dl,
		pending: make(map[uint64]*muxCall),
	}
	mc.armLocked(time.Now(), true) // no goroutine shares mc yet
	go mc.writeLoop(bw)
	go mc.readLoop(br)
	return mc, nil
}

// connSlots holds the connections of one role to one address: muxSlots of
// them, dialed lazily, picked round robin, and redialed when found dead.
// A peer has one per role it dials (peer, forward); a BinClient has one
// for the client role, whose every data call is a write or read list.
type connSlots struct {
	addr string
	role role
	rr   atomic.Uint32

	mu     sync.Mutex
	conns  [muxSlots]*muxConn
	closed bool
}

// conn returns the live connection for this call's slot, dialing (or
// redialing a dead slot) lazily.
func (s *connSlots) conn() (*muxConn, error) {
	slot := int(s.rr.Add(1)) % muxSlots
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errMuxClosed
	}
	if mc := s.conns[slot]; mc != nil && !mc.isDead() {
		return mc, nil
	}
	mc, err := dialRole(s.addr, s.role)
	if err != nil {
		return nil, err
	}
	s.conns[slot] = mc
	return mc, nil
}

// call runs one pipelined call without retry: enc encodes the request into
// a pooled buffer (ownership passes to the connection's writer loop), and
// the pooled response payload is the caller's to putBuf after decoding.
func (s *connSlots) call(op byte, sizeHint int, enc func(b []byte) []byte) (byte, []byte, error) {
	mc, err := s.conn()
	if err != nil {
		return 0, nil, err
	}
	return mc.call(op, enc(getBuf(sizeHint)[:0]))
}

// close tears down every connection; in-flight calls fail exactly once.
func (s *connSlots) close() {
	s.mu.Lock()
	s.closed = true
	conns := s.conns
	s.conns = [muxSlots]*muxConn{}
	s.mu.Unlock()
	for _, mc := range conns {
		if mc != nil {
			mc.teardown(errMuxClosed)
		}
	}
}

func (mc *muxConn) isDead() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.dead
}

// teardown marks the connection dead, closes it, and fails every pending
// call exactly once. Safe to call from the reader, the writer, and close;
// only the first caller delivers failures.
func (mc *muxConn) teardown(err error) {
	mc.mu.Lock()
	if mc.dead {
		mc.mu.Unlock()
		return
	}
	mc.dead = true
	mc.deadErr = err
	pending := mc.pending
	mc.pending = nil
	mc.nPend = 0
	mc.mu.Unlock()
	close(mc.done)
	mc.c.Close()
	for _, call := range pending {
		call.ch <- muxResult{err: err}
	}
}

func (mc *muxConn) writeLoop(bw *bufio.Writer) {
	// drain releases queued payloads after the loop stops accepting them.
	drain := func() {
		for {
			select {
			case w := <-mc.wch:
				putBuf(w.payload)
			case <-mc.done:
				// Keep draining until the queue is empty AND the conn is
				// dead, so a racing enqueue cannot strand a buffer.
				select {
				case w := <-mc.wch:
					putBuf(w.payload)
				default:
					return
				}
			}
		}
	}
	for {
		var w muxWrite
		select {
		case w = <-mc.wch:
		case <-mc.done:
			go drain()
			return
		}
		for {
			err := writeTaggedFrame(bw, w.op, w.id, w.payload)
			putBuf(w.payload)
			if err != nil {
				mc.teardown(err)
				go drain()
				return
			}
			select {
			case w = <-mc.wch:
				continue
			default:
			}
			break
		}
		// Queue idle: flush the batch in one syscall.
		if err := bw.Flush(); err != nil {
			mc.teardown(err)
			go drain()
			return
		}
	}
}

// armLocked sets the read deadline from now: the idle one, or one rpc
// timeout. Callers hold mc.mu, which orders every deadline change against
// the reader's checks.
func (mc *muxConn) armLocked(now time.Time, idle bool) {
	d := mc.dl.rpc
	if idle {
		d = mc.dl.idle
	}
	mc.armedAt, mc.deadline, mc.idle = now, now.Add(d), idle
	mc.c.SetReadDeadline(mc.deadline)
}

// readLoop matches responses to pending calls. It keeps the read deadline
// cheap to maintain and still tight: the call that makes the connection
// busy arms one rpc timeout (call), and the reader re-arms only on
// progress — a response read at least dl.rearm after the last arm — so a
// deadline is never later than one armed at the last response or
// registration would be. A peer that answers nothing for one timeout with
// calls pending fails them all. A deadline that expires between frames
// with no call pending only ends a busy period: the reader re-arms the
// idle deadline and keeps reading; the idle deadline expiring tears the
// unused connection down.
func (mc *muxConn) readLoop(br *bufio.Reader) {
	for {
		// Wait for a whole header first: a deadline that expires here
		// leaves the stream at a frame boundary, so reading can go on.
		if _, err := br.Peek(taggedHdrLen); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) && mc.outlivesDeadline() {
				continue
			}
			mc.teardown(err)
			return
		}
		status, id, payload, err := readTaggedFrame(br)
		if err != nil {
			mc.teardown(err)
			return
		}
		now := time.Now()
		mc.mu.Lock()
		call := mc.pending[id]
		if call != nil {
			delete(mc.pending, id)
			mc.nPend--
		}
		if now.Sub(mc.armedAt) >= mc.dl.rearm {
			mc.armLocked(now, mc.nPend == 0)
		}
		mc.mu.Unlock()
		if call == nil {
			putBuf(payload) // response for a call teardown already failed
			continue
		}
		call.ch <- muxResult{status: status, payload: payload}
	}
}

// outlivesDeadline decides, after the read deadline expired between
// frames, whether the connection lives on: when a call re-armed the
// deadline after the read failed, or when no call is pending and the
// expired deadline was a busy one (the reader then arms the idle one).
func (mc *muxConn) outlivesDeadline() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	now := time.Now()
	switch {
	case now.Before(mc.deadline):
		return true
	case mc.nPend == 0 && !mc.idle:
		mc.armLocked(now, true)
		return true
	}
	return false
}

// call performs one RPC. It takes ownership of payload (pooled; the writer
// loop releases it) and returns the response status plus a pooled response
// payload the caller must putBuf after decoding.
func (mc *muxConn) call(op byte, payload []byte) (status byte, resp []byte, err error) {
	mc.mu.Lock()
	if mc.dead {
		err := mc.deadErr
		mc.mu.Unlock()
		putBuf(payload)
		return 0, nil, err
	}
	mc.nextID++
	id := mc.nextID
	call := muxCallPool.Get().(*muxCall)
	mc.pending[id] = call
	mc.nPend++
	if mc.nPend == 1 {
		// Idle to busy: bring the deadline in to one rpc timeout (a
		// deadline set interrupts a blocked Read). While calls stay
		// pending, the reader moves it on as responses arrive.
		mc.armLocked(time.Now(), false)
	}
	mc.mu.Unlock()
	select {
	case mc.wch <- muxWrite{op: op, id: id, payload: payload}:
	case <-mc.done:
		// Teardown owns the pending table (we registered before dead was
		// set), so it delivers our failure below; the payload was never
		// enqueued and is ours to release.
		putBuf(payload)
	}
	res := <-call.ch
	muxCallPool.Put(call)
	return res.status, res.payload, res.err
}

// --- server side ---------------------------------------------------------

// muxTask is one decoded request awaiting a handler worker; muxDone is its
// completed response awaiting the writer. buf is the pooled scratch the
// response was encoded into (payload usually aliases it).
type muxTask struct {
	op      byte
	id      uint64
	payload []byte
}

type muxDone struct {
	status  byte
	id      uint64
	payload []byte
	buf     []byte
}

// serveMux serves a connection of role r once its hello is accepted: one
// reader (this goroutine), a worker pool dispatching the role's opcode
// table, and one writer batching tagged responses. The pool belongs to the
// connection, so one role's blocking ops never occupy another
// connection's workers. It returns when the connection dies; in-flight
// handlers drain through the worker pool first.
func (n *Node) serveMux(conn net.Conn, br *bufio.Reader, r role) {
	handle := n.handlerFor(r)
	reqs := make(chan muxTask, muxServerQueue)
	resps := make(chan muxDone, muxServerQueue)

	var wg sync.WaitGroup
	wg.Add(muxServerWorkers)
	for i := 0; i < muxServerWorkers; i++ {
		go func() {
			defer wg.Done()
			for t := range reqs {
				buf := getBuf(64)
				status, resp := handle(t.op, t.payload, buf[:0])
				putBuf(t.payload)
				resps <- muxDone{status: status, id: t.id, payload: resp, buf: answerBuf(buf, resp)}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(resps)
	}()
	go muxWriteResponses(conn, resps)

	durable := n.params.DataDir != ""
	peerRole := r == rolePeer
	for {
		op, id, payload, err := readTaggedFrame(br)
		if err != nil {
			break
		}
		// Peer ops that never block on storage are handled inline by the
		// reader (inlineLeg) — reads are the serving path's highest-rate op.
		// Anything that can block (durable applies, hinted applies, the
		// control plane, every client and forward op) goes to the pool.
		if peerRole && inlineLeg(op, durable) {
			buf := getBuf(64)
			status, resp := handle(op, payload, buf[:0])
			putBuf(payload)
			resps <- muxDone{status: status, id: id, payload: resp, buf: answerBuf(buf, resp)}
			continue
		}
		reqs <- muxTask{op: op, id: id, payload: payload}
	}
	close(reqs)
}

// muxWriteResponses drains completed handlers onto the wire, flushing only
// when the queue goes idle. On a write error it closes the connection (so
// the reader unblocks) and keeps draining to release pooled buffers.
func muxWriteResponses(conn net.Conn, resps <-chan muxDone) {
	bw := bufio.NewWriterSize(conn, muxIOBuf)
	var werr error
	for {
		r, ok := <-resps
		if !ok {
			conn.Close()
			return
		}
		for {
			if werr == nil {
				if werr = writeTaggedFrame(bw, r.status, r.id, r.payload); werr != nil {
					conn.Close()
				}
			}
			putBuf(r.buf)
			select {
			case r, ok = <-resps:
			default:
				ok = false
			}
			if !ok {
				break
			}
		}
		if werr == nil {
			if werr = bw.Flush(); werr != nil {
				conn.Close()
			}
		}
	}
}

package server

// The coordinator: one write path and one read path, each over a list of
// operations. A client's single-key PUT, DELETE or GET is a list of one,
// and a batch is many of the per-key quorum operations the paper analyzes
// — each key keeps its own preference list, quorum accounting, and typed
// verdict — with the fan-out amortized: the coordinator groups the keys'
// legs by destination peer and sends ONE leg per peer per list, the same
// list-carrying Apply or Get (fanout.go), so a 64-key batch on a 3-replica
// cluster costs 3 frames instead of 192. A leg that carries an injected
// WARS delay or a sloppy-quorum spare walk cannot share a frame — one
// frame cannot land entries at different times, or substitute a spare for
// one entry — so it carries one key on the same worker queues, with its
// own delays or spares (legFor); under an injected model a batched key
// therefore sees exactly the legs it would see alone.

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"pbs/internal/kvstore"
	"pbs/internal/ring"
)

// maxBatchOps bounds one client operation's entry list.
const maxBatchOps = 4096

// remoteWriteConcurrency bounds the concurrent routed writes for list keys
// another node coordinates. Wide enough to overlap their forward hops,
// narrow enough not to stampede the transport.
const remoteWriteConcurrency = 32

// BatchPutOp is one write inside a client operation's entry list.
type BatchPutOp struct {
	Key       string
	Value     string
	Tombstone bool
}

// putOp is one write at the node serving it, and its verdict once served:
// exactly one of pr and oe is then set. ws is the op's write quorum while
// its legs are in flight; routed marks a key another node coordinates.
type putOp struct {
	BatchPutOp
	pr     PutResponse
	oe     *opError
	ws     *writeState
	routed bool
}

// pending reports whether op is still to be coordinated here. routed is
// read first: a routed op's verdict may be written concurrently.
func (op *putOp) pending() bool { return !op.routed && op.oe == nil }

// getOp is one read at the node serving it: its key, aliasing the request
// frame, and its read state while its legs are in flight.
type getOp struct {
	key []byte
	rs  *readState
}

// opScratch is the pooled entry list of one client operation, so a list
// of one costs no allocation a single-key path would not.
type opScratch struct {
	puts []putOp
	gets []getOp
}

var opScratchPool = sync.Pool{New: func() any { return new(opScratch) }}

// release drops the entries' strings, keys and states (so the pool pins
// nothing) and repools the scratch.
func (sc *opScratch) release() {
	clear(sc.puts)
	clear(sc.gets)
	sc.puts, sc.gets = sc.puts[:0], sc.gets[:0]
	opScratchPool.Put(sc)
}

// coordinateReads answers a list of reads, appending to dst the count and
// one verdict per key, in input order (the opClientMGet response body):
// each a client GET body or the key's own typed failure (one key's quorum
// failure does not fail the others). Each read fans out to all N
// preference replicas with injected R/S delays and answers with the
// newest of the first R responses; the rest are collected in the
// background for the staleness detector and read repair. With sloppy
// quorums a leg whose replica is down falls back to the next live spare
// beyond the preference list, whose answer counts toward R. Keys may
// alias the client's request frame: each read state keeps its own copy.
func (n *Node) coordinateReads(gets []getOp, dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(gets)))
	v := n.view()
	quorumR := int(n.rq.Load())
	start := time.Now()
	var lbuf [maxStackPrefs]*legTask
	legs := lbuf[:0]
	var pbuf [maxStackPrefs]int
	for i := range gets {
		g := &gets[i]
		if len(g.key) == 0 || v == nil {
			continue
		}
		n.coordReads.Add(1)
		prefs := n.prefs(pbuf[:0], v, ring.Hash(g.key))
		g.rs = n.newReadState(v, g.key, min(quorumR, len(prefs)), len(prefs))
		legs = n.addReadLegs(legs, v, prefs, g.rs)
	}
	n.submitLegs(legs)
	// Harvest verdicts in input order. The waits overlap (every leg is
	// already in flight), so the walk costs the slowest key, not the sum;
	// each key's latency ends at its own quorum signal.
	for i := range gets {
		rs := gets[i].rs
		switch {
		case len(gets[i].key) == 0:
			dst = appendVerdictErr(dst, errBadRequest("server: empty key"))
			continue
		case v == nil:
			dst = appendVerdictErr(dst, errUnavailable("server: node has no membership yet"))
			continue
		}
		<-rs.waiter
		out, ok, finalizeNow := rs.answer(append(growBuf(dst, 1), 0), durationMs(rs.signaledAt.Sub(start)))
		if !ok {
			// The waiter only fired with succ < quorum because every leg had
			// answered, so nothing can still touch rs: release it here.
			n.failedOps.Add(1)
			dst = appendVerdictErr(out[:len(out)-1], errQuorumFailed("server: read quorum not reached"))
			rs.release()
			continue
		}
		dst = out
		rs.finish(finalizeNow)
	}
	return dst
}

// coordinateMPut serves a client's write list: every op gets its own
// verdict, in place. Keys this node coordinates fan out together
// (coordinateWrites); keys owned elsewhere (a client raced a ring change)
// take the routing path — including the forward hop — so correctness
// never depends on the client's grouping being current.
func (n *Node) coordinateMPut(ops []putOp) {
	v := n.view()
	local, routed := 0, 0
	for i := range ops {
		switch op := &ops[i]; {
		case op.Key == "":
			op.oe = errBadRequest("server: empty key")
		case len(op.Value) > maxValueBytes:
			op.oe = errBadRequest(errValueTooLarge)
		case v == nil:
			op.oe = errUnavailable("server: node has no membership yet")
		case v.m.Coordinator(op.Key) != n.id:
			op.routed = true
			routed++
		default:
			local++
		}
	}
	if routed == 0 || local == 0 {
		n.routeWrites(ops, routed)
		n.coordinateWrites(v, ops, false)
		return
	}
	// Mis-grouped keys route (and forward) concurrently with the local
	// keys' quorum waits.
	done := make(chan struct{})
	go func() {
		n.routeWrites(ops, routed)
		close(done)
	}()
	n.coordinateWrites(v, ops, false)
	<-done
}

// routeWrites routes the routed ops, each on the single-key routing path
// (routeWriteOp), at most remoteWriteConcurrency at a time. One routed op
// runs inline.
func (n *Node) routeWrites(ops []putOp, routed int) {
	if routed <= 1 {
		for i := range ops {
			if op := &ops[i]; op.routed {
				op.pr, op.oe = n.routeWriteOp(op.BatchPutOp, 0)
			}
		}
		return
	}
	workers := min(routed, remoteWriteConcurrency)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(ops); i = int(next.Add(1)) - 1 {
				if op := &ops[i]; op.routed {
					op.pr, op.oe = n.routeWriteOp(op.BatchPutOp, 0)
				}
			}
		}()
	}
	wg.Wait()
}

// coordinateWrites coordinates the pending ops at this node under view v:
// each gets the next version of its key and fans out to all N preference
// replicas with injected W/A delays (redirecting legs for unreachable
// replicas to hinted spares in sloppy mode), and commits at its own W-th
// acknowledgment. takeover marks failover coordination (sloppy quorums:
// the key's primary is down, see nextSeq). Every op gets its verdict in
// place; ops that already carry one, or are routed, are left alone.
func (n *Node) coordinateWrites(v *memView, ops []putOp, takeover bool) {
	quorumW := int(n.wq.Load())
	start := time.Now()
	var lbuf [maxStackPrefs]*legTask
	legs := lbuf[:0]
	var pbuf [maxStackPrefs]int
	for i := range ops {
		op := &ops[i]
		if !op.pending() {
			continue
		}
		n.coordWrites.Add(1)
		if takeover {
			n.failoverWrites.Add(1)
		}
		op.pr.Seq = n.nextSeq(op.Key, takeover)
		ver := kvstore.Version{Key: op.Key, Seq: op.pr.Seq, Value: op.Value, Tombstone: op.Tombstone}
		// The quorum clamps to the replica count: an elastic cluster smaller
		// than its target N keeps committing with the replicas it has.
		prefs := n.prefs(pbuf[:0], v, ring.Hash(op.Key))
		op.ws = newWriteState(min(quorumW, len(prefs)), len(prefs))
		legs = n.addWriteLegs(legs, v, prefs, ver, op.ws)
	}
	n.submitLegs(legs)
	for i := range ops {
		op := &ops[i]
		if op.ws == nil {
			continue
		}
		<-op.ws.waiter
		committed := op.ws.signaledAt
		ok := op.ws.finish()
		op.ws = nil
		if !ok {
			n.failedOps.Add(1)
			op.oe = errQuorumFailed("server: write quorum not reached")
			continue
		}
		op.pr = PutResponse{
			Seq:               op.pr.Seq,
			CommittedUnixNano: committed.UnixNano(),
			CoordMs:           durationMs(committed.Sub(start)),
			Node:              n.id,
		}
	}
}

package server

// Batched multi-key coordination. A batch runs the same per-key quorum
// operations the paper analyzes — each key keeps its own preference list,
// quorum accounting, and typed verdict — but the fan-out is amortized: the
// coordinator groups the keys' legs by destination peer and sends ONE leg
// per peer per batch, the same list-carrying Apply or Get a single-key
// operation sends with one entry (fanout.go), so a 64-key batch on a
// 3-replica cluster costs 3 frames instead of 192. A leg that carries an
// injected WARS delay or a sloppy-quorum spare walk cannot share a frame —
// one frame cannot land entries at different times, or substitute a spare
// for one entry — so it carries one key on the same worker queues, with
// its own delays or spares (legFor); under an injected model a batched key
// therefore sees exactly the legs of its single-key twin.

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"pbs/internal/kvstore"
	"pbs/internal/ring"
)

// maxBatchOps bounds one client batch.
const maxBatchOps = 4096

// remoteWriteConcurrency bounds the concurrent routed writes for batch keys
// another node coordinates. Wide enough to overlap their forward hops,
// narrow enough not to stampede the transport.
const remoteWriteConcurrency = 32

// BatchPutOp is one write inside a batched client operation.
type BatchPutOp struct {
	Key       string
	Value     string
	Tombstone bool
}

// batchPutOut carries one write's outcome in front-end-neutral form (same
// split as the single-key entry points): exactly one of the response and
// the typed error is set.
type batchPutOut struct {
	pr PutResponse
	oe *opError
}

// forEachIndex runs fn(i) for every index in idxs on a bounded worker
// group and waits for all of them.
func forEachIndex(idxs []int, fn func(i int)) {
	if len(idxs) == 0 {
		return
	}
	if len(idxs) == 1 {
		fn(idxs[0])
		return
	}
	workers := remoteWriteConcurrency
	if workers > len(idxs) {
		workers = len(idxs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(idxs) {
					return
				}
				fn(idxs[j])
			}
		}()
	}
	wg.Wait()
}

// coordinateMGet answers a batched read, appending to dst the count and
// one verdict per key, in input order (the opClientMGet response body):
// each a client GET body or the key's own typed failure (one key's quorum
// failure does not fail the batch). keys may alias the client's request
// frame: each key's read state keeps its own copy.
func (n *Node) coordinateMGet(keys [][]byte, dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(keys)))
	v := n.view()
	quorumR := int(n.rq.Load())
	start := time.Now()
	rss := make([]*readState, len(keys))
	var legs []*legTask
	var pbuf [maxStackPrefs]int
	for i, key := range keys {
		if len(key) == 0 || v == nil {
			continue
		}
		n.coordReads.Add(1)
		prefs := n.prefs(pbuf[:0], v, ring.Hash(key))
		rs := n.newReadState(v, key, min(quorumR, len(prefs)), len(prefs))
		rss[i] = rs
		legs = n.addReadLegs(legs, v, prefs, rs)
	}
	n.submitLegs(legs)
	// Harvest verdicts in input order. The waits overlap (every leg is
	// already in flight), so the walk costs the slowest key, not the sum;
	// each key's latency ends at its own quorum signal.
	for i, rs := range rss {
		switch {
		case len(keys[i]) == 0:
			dst = appendVerdictErr(dst, errBadRequest("server: empty key"))
			continue
		case v == nil:
			dst = appendVerdictErr(dst, errUnavailable("server: node has no membership yet"))
			continue
		}
		<-rs.waiter
		out, ok, finalizeNow := rs.answer(append(growBuf(dst, 1), 0), durationMs(rs.signaledAt.Sub(start)))
		if !ok {
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

// coordinateMPut answers a batched write: one entry per op, in input
// order, each with its own verdict. Keys this node coordinates fan out on
// grouped multi-key legs where they can; keys owned elsewhere (a client
// raced a ring change) take the single-key routing path — including the
// forward hop — so correctness never depends on the client's grouping being
// current.
func (n *Node) coordinateMPut(ops []BatchPutOp) []batchPutOut {
	outs := make([]batchPutOut, len(ops))
	todo := make([]int, 0, len(ops))
	for i, op := range ops {
		if op.Key == "" {
			outs[i].oe = errBadRequest("server: empty key")
			continue
		}
		if len(op.Value) > maxValueBytes {
			outs[i].oe = errBadRequest(errValueTooLarge)
			continue
		}
		todo = append(todo, i)
	}
	v := n.view()
	if v == nil {
		oe := errUnavailable("server: node has no membership yet")
		for _, i := range todo {
			outs[i].oe = oe
		}
		return outs
	}
	local := make([]int, 0, len(todo))
	var remote []int
	for _, i := range todo {
		if v.m.Coordinator(ops[i].Key) == n.id {
			local = append(local, i)
		} else {
			remote = append(remote, i)
		}
	}
	// Mis-grouped keys route (and forward) concurrently with the local
	// batch's quorum waits.
	var remoteWG sync.WaitGroup
	if len(remote) > 0 {
		remoteWG.Add(1)
		go func() {
			defer remoteWG.Done()
			forEachIndex(remote, func(i int) {
				outs[i].pr, outs[i].oe = n.routeWriteOp(ops[i].Key, ops[i].Value, ops[i].Tombstone, 0)
			})
		}()
	}
	n.coordWrites.Add(int64(len(local)))
	quorumW := int(n.wq.Load())
	start := time.Now()
	wss := make([]*writeState, len(ops))
	var legs []*legTask
	var pbuf [maxStackPrefs]int
	for _, i := range local {
		seq := n.nextSeq(ops[i].Key, false)
		ver := kvstore.Version{
			Key:       ops[i].Key,
			Seq:       seq,
			Value:     ops[i].Value,
			Tombstone: ops[i].Tombstone,
		}
		prefs := n.prefs(pbuf[:0], v, ring.Hash(ops[i].Key))
		q := quorumW
		if q > len(prefs) {
			q = len(prefs)
		}
		ws := newWriteState(q, len(prefs))
		wss[i] = ws
		outs[i].pr.Seq = seq
		legs = n.addWriteLegs(legs, v, prefs, ver, ws)
	}
	n.submitLegs(legs)
	for _, i := range local {
		ws := wss[i]
		<-ws.waiter
		committed := ws.signaledAt
		if !ws.finish() {
			n.failedOps.Add(1)
			outs[i] = batchPutOut{oe: errQuorumFailed("server: write quorum not reached")}
			continue
		}
		outs[i].pr = PutResponse{
			Seq:               outs[i].pr.Seq,
			CommittedUnixNano: committed.UnixNano(),
			CoordMs:           durationMs(committed.Sub(start)),
			Node:              n.id,
		}
	}
	remoteWG.Wait()
	return outs
}

package server

// Batched multi-key coordination. A batch runs the same per-key quorum
// operations the paper analyzes — each key keeps its own preference list,
// quorum accounting, and typed verdict — but the fan-out is amortized: the
// coordinator groups the keys' legs by destination peer and sends ONE
// multi-key RPC per peer per batch (ApplyBatch / GetVersionBatch), so a
// 64-key batch on a 3-replica cluster costs 3 frames instead of 192. A leg
// that carries an injected WARS delay or a sloppy-quorum spare walk cannot
// share a frame — one frame cannot land entries at different times, or
// substitute a spare for one entry — so it runs as a single-key leg on the
// same worker queues, with its own delays or spares; under an injected
// model a batched key therefore sees exactly the legs of its single-key
// twin.

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pbs/internal/kvstore"
	"pbs/internal/vclock"
)

// maxBatchOps bounds one client batch (both frames and the HTTP shim).
const maxBatchOps = 4096

// remoteWriteConcurrency bounds the concurrent routed writes for batch keys
// another node coordinates. Wide enough to overlap their proxy hops,
// narrow enough not to stampede the transport.
const remoteWriteConcurrency = 32

// BatchPutOp is one write inside a batched client operation.
type BatchPutOp struct {
	Key       string
	Value     string
	Tombstone bool
}

// batchPutOut / batchGetOut carry one key's outcome in front-end-neutral
// form (same split as the single-key entry points): exactly one of the
// response and the typed error is set.
type batchPutOut struct {
	pr PutResponse
	oe *opError
}

type batchGetOut struct {
	gr GetResponse
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

// batchLegFor finds (or starts) the batch leg targeting peer id. The scan
// is linear: a batch touches at most the cluster's member count of
// distinct peers, which is small.
func batchLegFor(legs *[]*legTask, n *Node, v *memView, id int, read bool) *legTask {
	for _, t := range *legs {
		if t.target == id {
			return t
		}
	}
	t := newLegTask()
	t.n, t.view, t.target, t.read, t.batch = n, v, id, read, true
	*legs = append(*legs, t)
	return t
}

// coordinateMGet answers a batched read: one entry per key, in input
// order, each carrying either a GetResponse or its own typed failure (one
// key's quorum failure does not fail the batch).
func (n *Node) coordinateMGet(keys []string) []batchGetOut {
	outs := make([]batchGetOut, len(keys))
	todo := make([]int, 0, len(keys))
	for i, key := range keys {
		if key == "" {
			outs[i].oe = errBadRequest("server: empty key")
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
	n.coordReads.Add(int64(len(todo)))
	quorumR := int(n.rq.Load())
	start := time.Now()
	rss := make([]*readState, len(keys))
	var legs []*legTask
	for _, i := range todo {
		prefs := n.prefs(v, keys[i])
		q := quorumR
		if q > len(prefs) {
			q = len(prefs)
		}
		rs := n.newReadState(v, q, len(prefs))
		rss[i] = rs
		var spares *sparePicker
		if n.params.SloppyQuorum {
			spares = n.sparePicker(v, keys[i])
		}
		for _, id := range prefs {
			if pre, post := n.inj.readLeg(); pre > 0 || post > 0 || spares != nil {
				n.submitReadLeg(v, id, keys[i], spares, rs, pre, post)
				continue
			}
			t := batchLegFor(&legs, n, v, id, true)
			t.bkeys = append(t.bkeys, keys[i])
			t.brs = append(t.brs, rs)
		}
	}
	for _, t := range legs {
		n.submitLeg(t.target, t)
	}
	// Harvest verdicts in input order. The waits overlap (every leg is
	// already in flight), so the walk costs the slowest key, not the sum;
	// each key's latency ends at its own quorum signal.
	for _, i := range todo {
		rs := rss[i]
		<-rs.waiter
		answered := rs.signaledAt
		best, found, ok, finalizeNow := rs.answer()
		if !ok {
			n.failedOps.Add(1)
			outs[i].oe = errQuorumFailed("server: read quorum not reached")
			rs.release()
			continue
		}
		outs[i].gr = GetResponse{
			Found:   found && !best.Tombstone,
			Seq:     best.Seq,
			Value:   best.Value,
			CoordMs: durationMs(answered.Sub(start)),
			Node:    n.id,
		}
		if finalizeNow {
			if n.params.ReadRepair {
				go func(rs *readState) {
					rs.finalize()
					rs.release()
				}(rs)
			} else {
				rs.finalize()
				rs.release()
			}
		}
	}
	return outs
}

// coordinateMPut answers a batched write: one entry per op, in input
// order, each with its own verdict. Keys this node coordinates fan out on
// grouped multi-key legs where they can; keys owned elsewhere (a client
// raced a ring change) take the single-key routing path — including the
// proxy hop — so correctness never depends on the client's grouping being
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
			outs[i].oe = &opError{
				status: http.StatusRequestEntityTooLarge,
				code:   CodeBadRequest,
				msg:    "server: value exceeds 1 MiB",
			}
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
	for _, i := range local {
		seq := n.nextSeq(ops[i].Key, false)
		ver := kvstore.Version{
			Key:       ops[i].Key,
			Seq:       seq,
			Value:     ops[i].Value,
			Tombstone: ops[i].Tombstone,
			Clock:     vclock.VC{n.id: n.clockTicks.Add(1)},
		}
		prefs := n.prefs(v, ops[i].Key)
		q := quorumW
		if q > len(prefs) {
			q = len(prefs)
		}
		ws := newWriteState(q, len(prefs))
		wss[i] = ws
		outs[i].pr.Seq = seq
		var spares *sparePicker
		if n.params.SloppyQuorum {
			spares = n.sparePicker(v, ops[i].Key)
		}
		for _, id := range prefs {
			if pre, post := n.inj.writeLeg(); pre > 0 || post > 0 || spares != nil {
				n.submitWriteLeg(v, id, ver, spares, ws, pre, post)
				continue
			}
			t := batchLegFor(&legs, n, v, id, false)
			t.bvers = append(t.bvers, ver)
			t.bws = append(t.bws, ws)
		}
	}
	for _, t := range legs {
		n.submitLeg(t.target, t)
	}
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

// --- HTTP compatibility shim --------------------------------------------

// BatchGetHTTPResult is one key's entry in the GET /kv?keys=... response:
// the GetResponse on success, or the same typed verdict the binary
// protocol carries (Code per clientproto.go, retryability included).
type BatchGetHTTPResult struct {
	GetResponse
	Error string `json:"error,omitempty"`
	Code  byte   `json:"code,omitempty"`
}

// handleMGet is the HTTP front end of coordinateMGet: GET /kv?keys=a,b,c
// answers a JSON array with one entry per requested key, in request
// order. Keys containing commas cannot ride this shim (the client library
// falls back to single-key GETs for those); the binary frames have no
// such restriction.
func (n *Node) handleMGet(w http.ResponseWriter, req *http.Request) {
	raw := req.URL.Query().Get("keys")
	if raw == "" {
		http.Error(w, "server: missing keys parameter", http.StatusBadRequest)
		return
	}
	keys := strings.Split(raw, ",")
	if len(keys) > maxBatchOps {
		http.Error(w, "server: batch too large", http.StatusBadRequest)
		return
	}
	outs := n.coordinateMGet(keys)
	items := make([]BatchGetHTTPResult, len(outs))
	for i, out := range outs {
		if out.oe != nil {
			items[i] = BatchGetHTTPResult{Error: out.oe.msg, Code: out.oe.code}
		} else {
			items[i] = BatchGetHTTPResult{GetResponse: out.gr}
		}
	}
	writeJSON(w, items)
}

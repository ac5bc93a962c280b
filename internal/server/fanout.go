package server

// Persistent per-peer fan-out workers: the one path every coordinator leg
// takes, single-key or batched, injected or not. The v1 coordinator spawned
// one goroutine per quorum leg per operation; at tens of thousands of ops/s
// on a 3-replica cluster that is >100k goroutine creations per second of
// pure churn. Here each destination member gets a small persistent worker
// pool draining a submission queue, so a quorum write touches N queues
// instead of spawning N goroutines, and the leg task itself is pooled.
//
// Injected WARS delays (latency.go) ride the same tasks as timers: a leg
// with a request delay arms its timer instead of entering the queue, and
// the timer enqueues it; a leg with a response delay re-arms the timer
// after its RPC, and the timer delivers the ack or read response. Workers
// therefore only ever hold a leg for its RPC, so injected legs overlap
// exactly as the WARS order statistics require. Fault injection
// (delay/pause) can make the RPC itself dwell: a full queue spills the task
// onto a fresh goroutine rather than queueing behind a stalled worker, so
// cross-peer legs never serialize behind one slow destination.
//
// Queues are keyed by member ID, which the membership layer never reuses,
// and live until the node closes: a departed member's drained queue idles
// at a few parked goroutines, which is cheaper than solving the
// enqueue-vs-shutdown race a per-membership lifecycle would create.

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"pbs/internal/kvstore"
	"pbs/internal/storage"
)

// legWorkersPerPeer bounds concurrent legs per destination on the worker
// path. Sized to keep a loopback peer's pipe full at high op concurrency
// without re-creating per-op goroutine churn.
var legWorkersPerPeer = max(8, min(32, 4*runtime.GOMAXPROCS(0)))

// legWorkers is this node's per-destination pool size, which is also the
// queue's capacity: submissions beyond it spill onto fresh goroutines
// (never block — a stalled peer must not gate other ops, and a leg RPC is
// a blocking round trip, so a backlog deeper than the worker pool would
// just sit in queue adding latency: the cap keeps queue dwell to about one
// extra round trip, and overload degrades to the pre-mux goroutine-per-leg
// shape instead of a convoy).
//
// Under fsync=always a write leg holds its worker through the replica's
// group commit — a whole fsync cycle, not a loopback round trip — so the
// pool is widened to the batch the replica's WAL can gather (its serving
// side's muxServerWorkers): behind a narrower pool the queued legs miss
// the commit in flight and each dwells an extra one. The policy is read
// from this node's own Params, which a cluster's nodes share.
func (n *Node) legWorkers() int {
	if n.params.DataDir != "" && n.params.Fsync == storage.FsyncAlways {
		return max(legWorkersPerPeer, muxServerWorkers)
	}
	return legWorkersPerPeer
}

type peerQueue struct {
	mu     sync.Mutex
	closed bool
	ch     chan *legTask
}

// submit enqueues t, reporting false when the queue is closed or full (the
// caller runs t on a fresh goroutine instead). The mutex orders submits
// against close: once drainAndClose sets closed, no task can enter ch, so
// the final drain leaves nothing stranded.
func (q *peerQueue) submit(t *legTask) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	select {
	case q.ch <- t:
		return true
	default:
		return false
	}
}

func (q *peerQueue) drainAndClose() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	for {
		select {
		case t := <-q.ch:
			t.run()
		default:
			return
		}
	}
}

// legQueue returns (creating on first use) the submission queue for member
// id, starting its workers.
func (n *Node) legQueue(id int) *peerQueue {
	if q, ok := n.legQueues.Load(id); ok {
		return q.(*peerQueue)
	}
	workers := n.legWorkers()
	q := &peerQueue{ch: make(chan *legTask, workers)}
	if actual, loaded := n.legQueues.LoadOrStore(id, q); loaded {
		return actual.(*peerQueue)
	}
	for i := 0; i < workers; i++ {
		first := i == 0
		go func() {
			for {
				select {
				case t := <-q.ch:
					t.run()
				case <-n.stop:
					if first {
						q.drainAndClose()
					}
					return
				}
			}
		}()
	}
	return q
}

// submitLeg routes one fan-out leg to its destination's worker queue,
// spilling onto a fresh goroutine when the queue is saturated or closing.
// A leg with an injected request delay arms its timer instead; the timer
// re-enters here once the delay has elapsed.
func (n *Node) submitLeg(id int, t *legTask) {
	if t.pre > 0 && !t.waited {
		t.waited = true
		t.arm(t.pre)
		return
	}
	if !n.legQueue(id).submit(t) {
		go t.run()
	}
}

// submitWriteLeg sends one single-key write leg to target with its
// injected W/A delays and sloppy-quorum spares.
func (n *Node) submitWriteLeg(v *memView, target int, ver kvstore.Version, spares *sparePicker, ws *writeState, pre, post time.Duration) {
	t := newLegTask()
	t.n, t.view, t.target = n, v, target
	t.ver, t.spares, t.ws = ver, spares, ws
	t.pre, t.post = pre, post
	n.submitLeg(target, t)
}

// submitReadLeg sends one single-key read leg for rs's key to target with
// its injected R/S delays and sloppy-quorum spares.
func (n *Node) submitReadLeg(v *memView, target int, spares *sparePicker, rs *readState, pre, post time.Duration) {
	t := newLegTask()
	t.n, t.view, t.target, t.read = n, v, target, true
	t.spares, t.rs = spares, rs
	t.pre, t.post = pre, post
	n.submitLeg(target, t)
}

// legTask is one fan-out leg. Pooled: whoever delivers its outcome releases
// it, so the steady-state hot path allocates no task objects. A batch leg
// carries one peer's whole share of a multi-key client batch (parallel
// per-key slices) and costs one RPC frame for all of them; batch legs never
// carry delays or spares.
type legTask struct {
	n      *Node
	view   *memView
	target int
	read   bool
	batch  bool

	// Write legs.
	ver kvstore.Version
	ws  *writeState
	// Read legs: the key is rs.key.
	rs *readState

	// Batched legs (coordinateMGet/coordinateMPut): index-aligned per-key
	// slices, capacity preserved across pool cycles. bkeys alias each read
	// state's own key; bresps is the answers' scratch.
	bvers  []kvstore.Version
	bws    []*writeState
	bkeys  [][]byte
	brs    []*readState
	bresps []readResp

	spares *sparePicker

	// Injected WARS delays: pre holds the leg back before its RPC (W or R),
	// post holds its outcome back after (A or S). timer serves both; it is
	// made on a task's first delay and kept across pool cycles, so
	// un-injected tasks never carry one. waited marks pre as served, done
	// that the RPC ran and its outcome (ok or rr) awaits delivery; rr owns
	// its answer's buffer until deliver hands it to the read state.
	pre, post time.Duration
	timer     *time.Timer
	waited    bool
	done      bool
	ok        bool
	rr        readResp
}

var legTaskPool = sync.Pool{New: func() any { return new(legTask) }}

func newLegTask() *legTask { return legTaskPool.Get().(*legTask) }

// arm schedules fire after d. A new timer is made with a due time that
// never comes and then reset, so the assignment to t.timer happens before
// any fire can read it.
func (t *legTask) arm(d time.Duration) {
	if t.timer == nil {
		t.timer = time.AfterFunc(math.MaxInt64, t.fire)
	}
	t.timer.Reset(d)
}

// fire ends an injected delay: before the RPC it enqueues the leg, after
// it delivers the outcome.
func (t *legTask) fire() {
	if t.done {
		t.deliver()
		return
	}
	t.n.submitLeg(t.target, t)
}

// run performs the leg's RPC. Batch legs ack each key themselves; a
// single-key leg stores its outcome and delivers it now, or after its
// injected response delay. The leg sampler sees the request leg as the
// injected delay plus the real RPC time, and the response leg as the
// injected delay alone (zero when nothing is injected).
func (t *legTask) run() {
	n := t.n
	var sent time.Time
	if n.legs != nil {
		sent = time.Now()
	}
	var ok bool
	switch {
	case t.batch && t.read:
		t.bresps = slices.Grow(t.bresps[:0], len(t.bkeys))[:len(t.bkeys)]
		n.runReadBatchLeg(t.view, t.target, t.bkeys, t.brs, t.bresps, sent)
		t.release()
		return
	case t.batch:
		n.runWriteBatchLeg(t.view, t.target, t.bvers, t.bws, sent)
		t.release()
		return
	case t.read:
		t.rr = n.readReplica(t.view, t.target, t.rs.key, t.spares)
		ok = t.rr.err == nil
	default:
		t.ok = n.deliverWrite(t.view, t.target, t.ver, t.spares)
		ok = t.ok
	}
	if ok && n.legs != nil {
		n.legs.observeLeg(t.read, durationMs(t.pre+time.Since(sent)), durationMs(t.post))
	}
	t.done = true
	if t.post > 0 {
		t.arm(t.post)
		return
	}
	t.deliver()
}

// deliver hands a single-key leg's outcome to its operation and releases
// the task.
func (t *legTask) deliver() {
	if t.read {
		t.rs.complete(t.rr)
	} else {
		t.ws.ack(t.ok)
	}
	t.release()
}

// release clears the task and returns it to the pool, zeroing the batch
// slices' elements (they hold strings, keys and pooled state pointers)
// while keeping their capacity — the per-peer grouping buffers are the
// batch path's hottest allocation — and keeping the timer. Every answer
// buffer has moved to its read state by now (deliver, runReadBatchLeg), so
// none is released here.
func (t *legTask) release() {
	clear(t.bvers)
	clear(t.bws)
	clear(t.bkeys)
	clear(t.brs)
	clear(t.bresps)
	bvers, bws, bkeys, brs, bresps := t.bvers[:0], t.bws[:0], t.bkeys[:0], t.brs[:0], t.bresps[:0]
	*t = legTask{bvers: bvers, bws: bws, bkeys: bkeys, brs: brs, bresps: bresps, timer: t.timer}
	legTaskPool.Put(t)
}

// runWriteBatchLeg delivers one peer's share of a batched write fan-out as
// a single ApplyBatch round trip and acks each key's write state from the
// peer's per-version answers, so ackable's stale-epoch refusal applies per
// key exactly as on the single-key path. A transport failure fails every
// key's leg and buffers one hint per version, mirroring deliverWrite.
// Keys with a spare walk never ride a batch leg, so there is none here.
func (n *Node) runWriteBatchLeg(v *memView, target int, vers []kvstore.Version, wss []*writeState, sent time.Time) {
	acks, err := v.peers[target].ApplyBatch(vers)
	if err != nil {
		if n.params.Handoff {
			for i := range vers {
				n.store.StoreHint(target, vers[i])
			}
		}
		for _, ws := range wss {
			ws.ack(false)
		}
		return
	}
	if n.legs != nil {
		// One observation per batch RPC: the keys shared one round trip.
		n.legs.observeLeg(false, durationMs(time.Since(sent)), 0)
	}
	for i, ws := range wss {
		ws.ack(n.ackable(vers[i], acks[i].Applied, acks[i].Seq))
	}
}

// runReadBatchLeg performs one peer's share of a batched read fan-out as a
// single GetVersionBatch round trip into out, handing each key's answer —
// and its buffer — to the key's read state. A transport failure completes
// every key's leg with the error (each key's quorum accounting stays
// independent). Every answer is decoded before the first is handed over:
// a completed read state may be released at once, and keys alias the
// states' own keys.
func (n *Node) runReadBatchLeg(v *memView, target int, keys [][]byte, rss []*readState, out []readResp, sent time.Time) {
	if err := v.peers[target].GetVersionBatch(keys, out); err != nil {
		for _, rs := range rss {
			rs.complete(readResp{node: target, err: err})
		}
		return
	}
	if n.legs != nil {
		n.legs.observeLeg(true, durationMs(time.Since(sent)), 0)
	}
	for i, rs := range rss {
		out[i].node = target
		rs.complete(out[i])
		out[i] = readResp{}
	}
}

// --- coordinated-read state ---------------------------------------------

// readResp is one replica's answer during a coordinated read: what the
// quorum logic compares (seq, found, tombstone) and the replica's value,
// left where it arrived — value aliases buf, the pooled frame of a remote
// or self leg (or, on a batch leg, a pooled copy of the key's share). A
// readResp owns buf: a leg hands it to its read state with complete, and
// readState.release repools it.
type readResp struct {
	node      int
	seq       uint64
	found     bool
	tombstone bool
	value     []byte
	buf       []byte
	err       error
}

// version decodes the answer into a Version for key; only read repair
// needs one, so only read repair pays for the copies.
func (r *readResp) version(key []byte) kvstore.Version {
	return kvstore.Version{Key: string(key), Seq: r.seq, Value: string(r.value), Tombstone: r.tombstone}
}

// readState collects one coordinated read's fan-out responses. It replaces
// the v1 response channel + background finishRead goroutine with a single
// mutex-guarded struct shared by the handler and the legs, preserving v1
// semantics exactly: the handler answers with the newest version among the
// first quorum *successful* responses in arrival order, and the staleness
// detector / read-repair pass runs once over all responses after both the
// last leg has landed and the handler has answered — executed by whichever
// of the two gets there last, so no goroutine is spawned on the common
// R < N hot path.
//
// Buffer ownership: the state owns a pooled copy of its key (legs send it;
// the client frame it came from is repooled when the handler returns) and
// every recorded answer's buffer. release repools all of them, so nothing
// may read a value once the read can be released — which is why answer
// copies the winner out before it marks the read answered.
type readState struct {
	n    *Node
	view *memView
	key  []byte

	quorum, total int
	waiter        chan struct{}
	// signaledAt is when the waiter fired: the handler's answer time. It is
	// written before the send and read after the receive.
	signaledAt time.Time

	mu        sync.Mutex
	resps     []readResp
	succ, don int
	signaled  bool
	answered  bool
	finalized bool
	// winner indexes the answer the handler returned in resps (-1 when no
	// replica had the key); returned is its seq (0 then).
	winner   int
	returned uint64
}

// readStatePool recycles read states across coordinated reads. The waiter
// is a capacity-1 channel reused across pool cycles: the signaled flag
// already guarantees exactly one send per read, and the handler performs
// exactly one receive, so the channel is always drained at release time.
var readStatePool = sync.Pool{New: func() any {
	return &readState{waiter: make(chan struct{}, 1)}
}}

func (n *Node) newReadState(v *memView, key []byte, quorum, total int) *readState {
	rs := readStatePool.Get().(*readState)
	rs.n, rs.view = n, v
	rs.key = append(getBuf(len(key))[:0], key...)
	rs.quorum, rs.total = quorum, total
	if cap(rs.resps) < total {
		rs.resps = make([]readResp, 0, total)
	}
	return rs
}

// release repools every answer buffer and the key, then the state itself.
// Callers must guarantee no leg can still touch rs: either every leg has
// completed (don == total — the failed-read and last-leg-finalize paths),
// or the releasing goroutine is the finalizer, which by construction runs
// after the last leg's critical section.
func (rs *readState) release() {
	for i := range rs.resps {
		putBuf(rs.resps[i].buf)
		rs.resps[i] = readResp{}
	}
	rs.resps = rs.resps[:0]
	putBuf(rs.key)
	rs.n, rs.view, rs.key = nil, nil, nil
	rs.quorum, rs.total, rs.succ, rs.don = 0, 0, 0, 0
	rs.signaled, rs.answered, rs.finalized = false, false, false
	rs.winner, rs.returned = 0, 0
	rs.signaledAt = time.Time{}
	readStatePool.Put(rs)
}

// complete records one leg's response, taking over its buffer, waking the
// handler once the quorum (or every leg) is in, and finalizing when this
// was the last leg of an already-answered read.
func (rs *readState) complete(r readResp) {
	rs.mu.Lock()
	rs.resps = append(rs.resps, r)
	rs.don++
	if r.err == nil {
		rs.succ++
	}
	signal := !rs.signaled && (rs.succ >= rs.quorum || rs.don == rs.total)
	if signal {
		rs.signaled = true
	}
	fin := rs.don == rs.total && rs.answered && !rs.finalized
	if fin {
		rs.finalized = true
	}
	rs.mu.Unlock()
	if signal {
		rs.signaledAt = time.Now()
		rs.waiter <- struct{}{}
	}
	if fin {
		rs.finalize()
		rs.release()
	}
}

// answer computes the handler's verdict after waiter fires: the newest
// version among the first quorum successful responses in arrival order
// (exactly the v1 channel loop). On success it appends the client GET body
// for the winner (appendClientGetBody, coordMs as the coordinator latency)
// to dst — the one copy of the value a read makes — and only then marks
// the read answered, all under rs.mu: from that mark on, the last leg may
// finalize and release the state, the winner's buffer with it. ok is false
// (dst unchanged) when every leg finished without reaching the quorum.
// When all legs have already landed the handler inherits the finalize pass
// (finalizeNow) — on a failed read it does not run, matching v1, where the
// detector never saw failed reads.
func (rs *readState) answer(dst []byte, coordMs float64) (out []byte, ok, finalizeNow bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	succ, best := 0, -1
	for i := range rs.resps {
		x := &rs.resps[i]
		if x.err != nil {
			continue
		}
		succ++
		if x.found && (best < 0 || x.seq > rs.resps[best].seq) {
			best = i
		}
		if succ == rs.quorum {
			break
		}
	}
	if succ < rs.quorum {
		return dst, false, false
	}
	// A tombstone wins the newest-of-R comparison like any version — that
	// is what makes a delete stick against slower live writes — but the
	// client sees the key as absent. Seq is still reported so callers can
	// observe the delete's version (and tests can assert tombstone
	// durability).
	var w readResp
	if best >= 0 {
		w = rs.resps[best]
	}
	dst = growBuf(dst, 1+8+8+4+4+len(w.value))
	out = appendClientGetBody(dst, w.found && !w.tombstone, w.seq, coordMs, rs.n.id, w.value)
	rs.answered = true
	rs.winner, rs.returned = best, w.seq
	if rs.don == rs.total && !rs.finalized {
		rs.finalized = true
		finalizeNow = true
	}
	return out, true, finalizeNow
}

// finalize runs the asynchronous staleness detector and (when enabled)
// read repair over the complete response set — a direct port of the v1
// finishRead. It runs exactly once per successful read, after the last leg
// landed and the handler answered; by then resps is immutable. The
// detector compares seqs; the newest answer is decoded into a version only
// when a stale replica is actually repaired.
func (rs *readState) finalize() {
	newest, seq := rs.winner, rs.returned
	for i := range rs.resps {
		if x := &rs.resps[i]; x.err == nil && x.found && x.seq > seq {
			newest, seq = i, x.seq
		}
	}
	if seq > rs.returned {
		rs.n.detectorFlags.Add(1)
	}
	if !rs.n.params.ReadRepair || seq == 0 {
		return
	}
	var ver kvstore.Version
	for i := range rs.resps {
		if x := &rs.resps[i]; x.err == nil && x.seq < seq {
			if ver.Seq == 0 {
				ver = rs.resps[newest].version(rs.key)
			}
			if _, _, err := rs.view.peers[x.node].Apply(ver); err == nil {
				rs.n.readRepairs.Add(1)
			}
		}
	}
}

// finish ends a successful read's handler side: when answer handed it the
// finalize pass, it runs it — on a goroutine when read repair is on, so
// repair RPCs never delay the response — and releases the state.
func (rs *readState) finish(finalizeNow bool) {
	switch {
	case !finalizeNow:
	case rs.n.params.ReadRepair:
		go func() {
			rs.finalize()
			rs.release()
		}()
	default:
		rs.finalize()
		rs.release()
	}
}

// --- coordinated-write state --------------------------------------------

// writeState collects one coordinated write's fan-out acks. It replaces
// the per-op buffered ack channel: the waiter fires exactly once — when
// the quorum is reached or every leg has answered — and the struct is
// pooled, released by whichever of {last leg, handler} finishes second,
// so a straggler leg on a send-to-all write can never touch a recycled
// struct.
type writeState struct {
	quorum, total int
	waiter        chan struct{}
	// signaledAt is when the waiter fired: the commit time on success. It
	// is written before the send and read after the receive.
	signaledAt time.Time

	mu          sync.Mutex
	got, don    int
	signaled    bool
	handlerDone bool
}

var writeStatePool = sync.Pool{New: func() any {
	return &writeState{waiter: make(chan struct{}, 1)}
}}

func newWriteState(quorum, total int) *writeState {
	ws := writeStatePool.Get().(*writeState)
	ws.quorum, ws.total = quorum, total
	return ws
}

// ack records one leg's outcome, waking the handler once the quorum (or
// every leg) is in. Exactly one of the last leg and finish releases the
// struct: both decide under the mutex, so exactly one critical section
// observes don == total && handlerDone both true.
func (ws *writeState) ack(ok bool) {
	ws.mu.Lock()
	ws.don++
	if ok {
		ws.got++
	}
	signal := !ws.signaled && (ws.got >= ws.quorum || ws.don == ws.total)
	if signal {
		ws.signaled = true
	}
	release := ws.don == ws.total && ws.handlerDone
	ws.mu.Unlock()
	if signal {
		ws.signaledAt = time.Now()
		ws.waiter <- struct{}{}
	}
	if release {
		ws.release()
	}
}

// finish returns the quorum verdict after waiter fired. Handlers call it
// exactly once; it releases the state when every leg has already answered
// (otherwise the last straggler leg does).
func (ws *writeState) finish() bool {
	ws.mu.Lock()
	ok := ws.got >= ws.quorum
	ws.handlerDone = true
	release := ws.don == ws.total
	ws.mu.Unlock()
	if release {
		ws.release()
	}
	return ok
}

func (ws *writeState) release() {
	ws.quorum, ws.total, ws.got, ws.don = 0, 0, 0, 0
	ws.signaled, ws.handlerDone = false, false
	ws.signaledAt = time.Time{}
	writeStatePool.Put(ws)
}

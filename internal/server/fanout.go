package server

// Persistent per-peer fan-out workers: the one path every coordinator leg
// takes, single-key or batched, injected or not. The v1 coordinator spawned
// one goroutine per quorum leg per operation; at tens of thousands of ops/s
// on a 3-replica cluster that is >100k goroutine creations per second of
// pure churn. Here each destination member gets a small persistent worker
// pool draining a submission queue, so a quorum write touches N queues
// instead of spawning N goroutines, and the leg task itself is pooled.
//
// A leg has one shape per direction — a list of versions on one Apply, or
// of keys on one Get — and one runner each (runWrite, runRead): a
// single-key operation's leg is a list of one. The sloppy-quorum spare
// walk that moves a leg past an unreachable replica is written once
// (legTask.call) and serves both directions.
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
	"fmt"
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

// addWriteLegs adds ver's legs, one per preference replica in prefs, to
// legs and returns them. A leg with an injected W/A delay or a spare walk
// is a task of its own (alone), submitted at once; the others join the
// task that groups this operation's (or batch's) entries for their peer,
// which the caller submits with submitLegs.
func (n *Node) addWriteLegs(legs []*legTask, v *memView, prefs []int, ver kvstore.Version, ws *writeState) []*legTask {
	var spares *sparePicker
	if n.params.SloppyQuorum {
		spares = n.sparePicker(v, ver.Key)
	}
	for _, id := range prefs {
		var t *legTask
		pre, post := n.inj.writeLeg()
		t, legs = n.legFor(legs, v, id, false, spares, pre, post)
		t.vers = append(t.vers, ver)
		t.wss = append(t.wss, ws)
		if t.alone() {
			n.submitLeg(id, t)
		}
	}
	return legs
}

// addReadLegs is addWriteLegs for a read of rs's key.
func (n *Node) addReadLegs(legs []*legTask, v *memView, prefs []int, rs *readState) []*legTask {
	var spares *sparePicker
	if n.params.SloppyQuorum {
		spares = n.sparePicker(v, string(rs.key))
	}
	for _, id := range prefs {
		var t *legTask
		pre, post := n.inj.readLeg()
		t, legs = n.legFor(legs, v, id, true, spares, pre, post)
		t.keys = append(t.keys, rs.key)
		t.rss = append(t.rss, rs)
		if t.alone() {
			n.submitLeg(id, t)
		}
	}
	return legs
}

// legFor returns the task one entry's leg to peer id joins, and legs with
// any task it started there. A leg with injected delays (pre, post) or
// spares cannot share a frame — one frame cannot land entries at
// different times, or substitute a spare for one entry — so it gets a
// fresh task of its own; otherwise it joins the grouping task for id in
// legs, started on first use. The scan is linear: an operation touches at
// most the cluster's member count of distinct peers, which is small.
func (n *Node) legFor(legs []*legTask, v *memView, id int, read bool, spares *sparePicker, pre, post time.Duration) (*legTask, []*legTask) {
	if pre > 0 || post > 0 || spares != nil {
		t := newLegTask(n, v, id, read)
		t.spares, t.pre, t.post = spares, pre, post
		return t, legs
	}
	for _, t := range legs {
		if t.target == id {
			return t, legs
		}
	}
	t := newLegTask(n, v, id, read)
	return t, append(legs, t)
}

// alone reports whether t carries injected delays or a spare walk, and so
// one entry of its own (legFor).
func (t *legTask) alone() bool { return t.pre > 0 || t.post > 0 || t.spares != nil }

// submitLegs submits the grouping tasks addWriteLegs and addReadLegs built.
func (n *Node) submitLegs(legs []*legTask) {
	for _, t := range legs {
		n.submitLeg(t.target, t)
	}
}

// legTask is one fan-out leg: the entries one operation, or one peer's
// share of a multi-key batch, sends to one replica in one RPC frame.
// Pooled: whoever delivers its outcome releases it, so the steady-state
// hot path allocates no task objects.
type legTask struct {
	n      *Node
	view   *memView
	target int
	read   bool

	// The leg's entries, index-aligned, capacity kept across pool cycles.
	// A write leg carries versions, their write states, the replica's acks
	// and each entry's verdict toward W; a read leg carries keys (each
	// aliasing its read state's own key), the read states and the answers,
	// each of which owns its buffer until deliver hands it to its read
	// state.
	vers  []kvstore.Version
	wss   []*writeState
	acks  []applyAck
	oks   []bool
	keys  [][]byte
	rss   []*readState
	resps []readResp

	// spares is set on a sloppy-quorum leg (one entry): the picker it
	// shares with the other legs of its operation.
	spares *sparePicker

	// Injected WARS delays: pre holds the leg back before its RPC (W or R),
	// post holds its outcome back after (A or S). timer serves both; it is
	// made on a task's first delay and kept across pool cycles, so
	// un-injected tasks never carry one. waited marks pre as served, done
	// that the RPC ran and its outcome awaits delivery.
	pre, post time.Duration
	timer     *time.Timer
	waited    bool
	done      bool
}

var legTaskPool = sync.Pool{New: func() any { return new(legTask) }}

func newLegTask(n *Node, v *memView, target int, read bool) *legTask {
	t := legTaskPool.Get().(*legTask)
	t.n, t.view, t.target, t.read = n, v, target, read
	return t
}

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

// run performs the leg's RPC and stores its outcome, which it delivers now
// or after its injected response delay. The leg sampler sees one
// observation per leg: the request leg as the injected delay plus the real
// RPC time (the entries of a grouped leg shared one round trip), and the
// response leg as the injected delay alone (zero when nothing is
// injected).
func (t *legTask) run() {
	n := t.n
	var sent time.Time
	if n.legs != nil {
		sent = time.Now()
	}
	var err error
	if t.read {
		err = t.runRead()
	} else {
		err = t.runWrite()
	}
	if err == nil && n.legs != nil {
		n.legs.observeLeg(t.read, durationMs(t.pre+time.Since(sent)), durationMs(t.post))
	}
	t.done = true
	if t.post > 0 {
		t.arm(t.post)
		return
	}
	t.deliver()
}

// runWrite lands the leg's versions and records each entry's verdict, so
// ackable's stale-epoch refusal applies per key. A spare that stands in
// for the target takes the version as a hinted write, which counts toward
// W. When neither the target nor a spare takes the leg, every entry fails
// and the coordinator buffers one hint per version for the target itself.
func (t *legTask) runWrite() error {
	n, count := t.n, len(t.vers)
	t.acks = slices.Grow(t.acks[:0], count)[:count]
	t.oks = slices.Grow(t.oks[:0], count)[:count]
	dest, err := t.call(func(dest int) error {
		if dest == t.target {
			return t.view.peers[dest].Apply(t.vers, t.acks)
		}
		var err error
		t.acks[0], err = t.view.peers[dest].ApplyHinted(t.vers[0], t.target)
		return err
	})
	if err != nil {
		if n.params.Handoff {
			for _, ver := range t.vers {
				n.store.StoreHint(t.target, ver)
			}
		}
		clear(t.oks)
		return err
	}
	if dest != t.target {
		n.spareWrites.Add(1)
	}
	for i := range t.vers {
		t.oks[i] = n.ackable(t.vers[i], t.acks[i])
	}
	return nil
}

// runRead reads the leg's keys into its answers. A spare that stands in
// for the target answers in its place and counts toward R: a crashed
// replica's most recent writes live on the spare holding its hints, so the
// spare's answer is the best available stand-in. A failure completes every
// entry with the error, each key's quorum accounting staying independent.
func (t *legTask) runRead() error {
	count := len(t.keys)
	t.resps = slices.Grow(t.resps[:0], count)[:count]
	dest, err := t.call(func(dest int) error {
		return t.view.peers[dest].Get(t.keys, t.resps)
	})
	for i := range t.resps {
		if err != nil {
			t.resps[i].err = err
		}
		t.resps[i].node = dest
	}
	if err == nil && dest != t.target {
		t.n.spareReads.Add(1)
	}
	return err
}

// call runs rpc against the leg's target and returns the node that
// answered. In sloppy mode (spares set) this is the one spare walk of both
// directions: when the target is unreachable the leg moves to the next
// live spare past the preference list, and since one operation's legs
// share its picker, two of its legs never land on one spare.
func (t *legTask) call(rpc func(dest int) error) (int, error) {
	if t.spares == nil {
		return t.target, rpc(t.target)
	}
	n, v := t.n, t.view
	if n.alive(v, t.target) {
		err := rpc(t.target)
		if err == nil {
			return t.target, nil
		}
		if deadError(err) {
			n.live.markDead(t.target)
		}
	}
	for s := t.spares.next(); s >= 0; s = t.spares.next() {
		if !n.alive(v, s) {
			continue
		}
		err := rpc(s)
		if err == nil {
			return s, nil
		}
		if deadError(err) {
			n.live.markDead(s)
		}
	}
	return t.target, fmt.Errorf("%w: replica %d and all spares unreachable", ErrReplicaDown, t.target)
}

// sparePicker hands out each spare node (ring order beyond the preference
// list) at most once per operation, so two substituted legs of one write
// never land on the same physical node — the W quorum must count distinct
// nodes to mean anything for durability.
type sparePicker struct {
	mu    sync.Mutex
	cands []int
}

func (n *Node) sparePicker(v *memView, key string) *sparePicker {
	full := v.m.PreferenceList(key, v.m.Size())
	return &sparePicker{cands: full[n.replication(v):]}
}

// next returns the next unclaimed spare, or -1 when the ring is exhausted.
func (sp *sparePicker) next() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if len(sp.cands) == 0 {
		return -1
	}
	s := sp.cands[0]
	sp.cands = sp.cands[1:]
	return s
}

// deliver hands each entry's outcome to its operation and releases the
// task. Every answer was decoded before the first is handed over: a
// completed read state may be released at once, and the keys alias the
// states' own keys.
func (t *legTask) deliver() {
	if t.read {
		for i, rs := range t.rss {
			rs.complete(t.resps[i])
			t.resps[i] = readResp{}
		}
	} else {
		for i, ws := range t.wss {
			ws.ack(t.oks[i])
		}
	}
	t.release()
}

// release clears the task and returns it to the pool, zeroing the entry
// slices that hold strings, keys and pooled state pointers while keeping
// every slice's capacity — the per-peer grouping buffers are the batch
// path's hottest allocation — and keeping the timer. Every answer buffer
// has moved to its read state by now (deliver), so none is released here.
func (t *legTask) release() {
	clear(t.vers)
	clear(t.wss)
	clear(t.keys)
	clear(t.rss)
	*t = legTask{
		vers: t.vers[:0], wss: t.wss[:0], acks: t.acks[:0], oks: t.oks[:0],
		keys: t.keys[:0], rss: t.rss[:0], resps: t.resps[:0],
		timer: t.timer,
	}
	legTaskPool.Put(t)
}

// --- coordinated-read state ---------------------------------------------

// readResp is one replica's answer during a coordinated read: what the
// quorum logic compares (seq, found, tombstone) and the replica's value,
// left where it arrived — value aliases buf, the pooled frame of a remote
// or self leg (or, on a leg of several keys, a pooled copy of the key's
// share). A readResp owns buf: a leg hands it to its read state with
// complete, and readState.release repools it.
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
			if err := applyOne(rs.view.peers[x.node], ver); err == nil {
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

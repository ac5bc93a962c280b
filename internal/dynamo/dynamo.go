// Package dynamo implements a complete Dynamo-style quorum-replicated
// key-value store on a discrete-event simulator: coordinators that fan
// writes and reads out to N replicas and answer after the first W acks /
// first R responses (Figure 1 of the paper), versioned replica storage,
// read repair, Merkle-tree anti-entropy, hinted handoff, fail-stop failure
// injection, and the asynchronous staleness detector of Section 4.3.
//
// The paper validates its WARS Monte Carlo model against a modified Apache
// Cassandra cluster (Section 5.2); this package is the substitute
// validation target: an independent, full-protocol implementation whose
// message delays are drawn from the same W/A/R/S distributions, so the
// sampling model and the protocol state machine can be checked against one
// another (see MeasureTVisibility in probe.go and EXPERIMENTS.md).
package dynamo

import (
	"errors"
	"fmt"

	"pbs/internal/des"
	"pbs/internal/dist"
	"pbs/internal/kvstore"
	"pbs/internal/netsim"
	"pbs/internal/ring"
	"pbs/internal/rng"
)

// Message kinds beyond the four WARS kinds.
const (
	// KindRepair carries a read-repair write (treated like a write on the
	// wire, Section 4.2: "Read repair acts like an additional write for
	// every read").
	KindRepair = netsim.KindUser + iota
	// KindAntiEntropyReq/Resp carry Merkle exchange rounds.
	KindAntiEntropyReq
	KindAntiEntropyResp
	// KindHint carries a hinted-handoff replay write.
	KindHint
	// KindHintAck acknowledges a hinted write so the holder can drop it.
	KindHintAck
)

// Params configures a cluster.
type Params struct {
	// Nodes is the cluster size; N is the per-key replication factor
	// (N <= Nodes). R and W are the read/write response thresholds.
	Nodes, N, R, W int

	// VNodes is the number of virtual nodes per physical node on the
	// consistent-hashing ring (default 64).
	VNodes int

	// ReadRepair asynchronously updates out-of-date replicas observed
	// during reads (Section 4.2). The paper's WARS validation disables it.
	ReadRepair bool

	// AntiEntropyInterval, when positive, runs a Merkle-tree exchange
	// between a random replica pair every interval (Section 4.2 notes
	// Cassandra runs this only when manually requested; it is therefore
	// off by default).
	AntiEntropyInterval float64
	// AntiEntropyDepth is the Merkle tree depth (default 8).
	AntiEntropyDepth int

	// HintedHandoff stores writes destined for unresponsive replicas on a
	// fallback node, which replays them on a timer (Dynamo Section 4.6, as
	// cited in the paper's failure-modes discussion).
	HintedHandoff bool
	// WriteTimeout is how long a coordinator waits for a replica's write
	// ack before handing a hint to a fallback node (default 50 time
	// units; only used when HintedHandoff is set).
	WriteTimeout float64
	// HintReplayInterval is how often hint holders retry delivery
	// (default 100 time units).
	HintReplayInterval float64

	// LocalCoordinator, when set, gives the coordinator's own replica
	// zero-delay messages, modeling the proxying variant of Section 4.2.
	// Disabled by default to match the WARS model exactly.
	LocalCoordinator bool

	// ReadTimeout, when positive, bounds how long a read coordinator waits
	// for its R-th response. On expiry the client receives the best version
	// seen so far with TimedOut set — the availability/consistency choice a
	// real coordinator makes when replicas are down or partitioned.
	ReadTimeout float64

	// WANDelay, when positive, treats each node as its own datacenter and
	// adds this one-way delay to every message between distinct nodes —
	// the store-level counterpart of the paper's WAN scenario
	// (Section 5.5). Coordinators reach their co-located replica without
	// the extra hop.
	WANDelay float64

	// Model supplies the W/A/R/S one-way latency distributions.
	Model dist.LatencyModel
}

func (p *Params) setDefaults() error {
	if p.Nodes == 0 {
		p.Nodes = p.N
	}
	if p.N < 1 || p.Nodes < p.N {
		return fmt.Errorf("dynamo: need 1 <= N (%d) <= Nodes (%d)", p.N, p.Nodes)
	}
	if p.R < 1 || p.R > p.N || p.W < 1 || p.W > p.N {
		return fmt.Errorf("dynamo: need 1 <= R (%d), W (%d) <= N (%d)", p.R, p.W, p.N)
	}
	for _, d := range []dist.Dist{p.Model.W, p.Model.A, p.Model.R, p.Model.S} {
		if d == nil {
			return errors.New("dynamo: latency model must set W, A, R and S")
		}
	}
	if p.VNodes == 0 {
		p.VNodes = 64
	}
	if p.AntiEntropyDepth == 0 {
		p.AntiEntropyDepth = 8
	}
	if p.WriteTimeout == 0 {
		p.WriteTimeout = 50
	}
	if p.HintReplayInterval == 0 {
		p.HintReplayInterval = 100
	}
	return nil
}

// Stats aggregates cluster activity.
type Stats struct {
	Writes, Reads        int64
	RepairsSent          int64
	AntiEntropyRounds    int64
	AntiEntropyVersions  int64
	HintsStored          int64
	HintsReplayed        int64
	ReadTimeouts         int64
	DetectorFlags        int64
	DetectorTruePositive int64
	DetectorFalseAlarm   int64
}

// WriteResult reports a committed write.
type WriteResult struct {
	Key         string
	Seq         uint64
	Coordinator int
	StartedAt   float64
	CommittedAt float64
}

// Latency returns the client-observed write latency.
func (w WriteResult) Latency() float64 { return w.CommittedAt - w.StartedAt }

// ReadResult reports a completed read.
type ReadResult struct {
	Key         string
	Coordinator int
	StartedAt   float64
	ReturnedAt  float64
	// Version is the newest version among the first R responses.
	Version kvstore.Version
	// NewestCommittedSeq is the ground-truth newest committed sequence
	// number for the key at StartedAt (oracle data for staleness
	// classification).
	NewestCommittedSeq uint64
	// TimedOut indicates the read finished without R responses.
	TimedOut bool
}

// Latency returns the client-observed read latency.
func (r ReadResult) Latency() float64 { return r.ReturnedAt - r.StartedAt }

// Stale reports whether the read returned data older than the newest
// version committed before the read started (in-flight newer versions do
// not count as staleness, matching PBS semantics).
func (r ReadResult) Stale() bool { return r.Version.Seq < r.NewestCommittedSeq }

// node is one storage replica.
type node struct {
	id    int
	store *kvstore.Store
	// hints maps target replica → versions awaiting replay.
	hints map[int][]kvstore.Version
}

// commitRecord is ground truth for the staleness oracle.
type commitRecord struct {
	seq         uint64
	committedAt float64
}

// Cluster is a simulated Dynamo-style store.
type Cluster struct {
	Sim *des.Simulator
	Net *netsim.Network

	params Params
	r      *rng.RNG
	ring   *ring.Ring
	nodes  []*node

	nextSeq   map[string]uint64
	commits   map[string][]commitRecord
	nextReqID uint64
	writes    map[uint64]*writeOp
	reads     map[uint64]*readOp

	stats Stats
}

// writeOp tracks an in-flight client write at its coordinator.
type writeOp struct {
	version  kvstore.Version
	coord    int
	started  float64
	acks     map[int]bool
	needed   int
	done     bool
	replicas []int
	onCommit func(WriteResult)
}

// readOp tracks an in-flight client read at its coordinator.
type readOp struct {
	key       string
	coord     int
	started   float64
	truthSeq  uint64
	responses map[int]kvstore.Version
	needed    int
	answered  bool
	best      kvstore.Version // newest seen across all responses
	returned  kvstore.Version // what the client was given (first R)
	replicas  []int
	onDone    func(ReadResult)
	// flagged records that the Section 4.3 detector raised a staleness
	// alarm for this read (at most once).
	flagged bool
}

// NewCluster builds a cluster on a fresh simulator.
func NewCluster(p Params, r *rng.RNG) (*Cluster, error) {
	if err := p.setDefaults(); err != nil {
		return nil, err
	}
	sim := des.New()
	net := netsim.New(sim, p.Nodes, dist.Point{V: 0.01}, r.Split())
	net.UseModel(p.Model)
	// Repairs and hints travel like writes; anti-entropy like writes too.
	net.SetKindLatency(KindRepair, p.Model.W)
	net.SetKindLatency(KindAntiEntropyReq, p.Model.W)
	net.SetKindLatency(KindAntiEntropyResp, p.Model.W)
	net.SetKindLatency(KindHint, p.Model.W)
	net.SetKindLatency(KindHintAck, p.Model.A)
	if p.WANDelay > 0 {
		delay := p.WANDelay
		net.SetExtraDelay(func(from, to int, _ netsim.Kind) float64 {
			if from == to {
				return 0
			}
			return delay
		})
	}

	c := &Cluster{
		Sim:     sim,
		Net:     net,
		params:  p,
		r:       r,
		ring:    ring.New(p.Nodes, p.VNodes),
		nextSeq: make(map[string]uint64),
		commits: make(map[string][]commitRecord),
		writes:  make(map[uint64]*writeOp),
		reads:   make(map[uint64]*readOp),
	}
	c.nodes = make([]*node, p.Nodes)
	for i := range c.nodes {
		c.nodes[i] = &node{id: i, store: kvstore.New(), hints: make(map[int][]kvstore.Version)}
		id := i
		net.Handle(i, func(m netsim.Message) { c.dispatch(id, m) })
	}
	if p.AntiEntropyInterval > 0 {
		c.scheduleAntiEntropy()
	}
	if p.HintedHandoff {
		c.scheduleHintReplay()
	}
	return c, nil
}

// Params returns the cluster's configuration (after defaulting).
func (c *Cluster) Params() Params { return c.params }

// Settle executes pending events until every in-flight client operation has
// fully retired (all N acks/responses received) or `window` units of
// virtual time elapse — whichever comes first. Periodic maintenance events
// keep the event queue non-empty forever, so callers cannot simply run the
// simulator dry.
func (c *Cluster) Settle(window float64) {
	deadline := c.Sim.Now() + window
	for (len(c.writes) > 0 || len(c.reads) > 0) && c.Sim.Now() < deadline {
		if !c.Sim.Step() {
			return
		}
	}
}

// PendingOps returns the number of client operations still in flight.
func (c *Cluster) PendingOps() int { return len(c.writes) + len(c.reads) }

// Stats returns a copy of the activity counters.
func (c *Cluster) Stats() Stats { return c.stats }

// Node returns the store of node id (test and probe access).
func (c *Cluster) NodeStore(id int) *kvstore.Store { return c.nodes[id].store }

// Replicas returns the preference list for key.
func (c *Cluster) Replicas(key string) []int {
	return c.ring.PreferenceList(key, c.params.N)
}

// NewestCommittedSeq returns the ground-truth newest sequence number
// committed for key at or before time t (the staleness oracle).
func (c *Cluster) NewestCommittedSeq(key string, t float64) uint64 {
	var best uint64
	for _, rec := range c.commits[key] {
		if rec.committedAt <= t && rec.seq > best {
			best = rec.seq
		}
	}
	return best
}

// message payloads

type writeReq struct {
	reqID uint64
	v     kvstore.Version
}

type writeAck struct {
	reqID   uint64
	replica int
}

type readReq struct {
	reqID uint64
	key   string
}

type readResp struct {
	reqID   uint64
	replica int
	v       kvstore.Version
}

// Put issues a client write through the key's designated coordinator.
// onCommit (optional) fires when W replicas have acknowledged.
func (c *Cluster) Put(key, value string, onCommit func(WriteResult)) {
	coord := c.ring.Coordinator(key)
	c.putFrom(coord, key, value, onCommit)
}

// putFrom issues a write via an explicit coordinator node.
func (c *Cluster) putFrom(coord int, key, value string, onCommit func(WriteResult)) {
	c.stats.Writes++
	c.nextSeq[key]++
	seq := c.nextSeq[key]
	v := kvstore.Version{
		Key:   key,
		Seq:   seq,
		Value: value,
	}
	c.nextReqID++
	id := c.nextReqID
	op := &writeOp{
		version:  v,
		coord:    coord,
		started:  c.Sim.Now(),
		acks:     make(map[int]bool),
		needed:   c.params.W,
		replicas: c.Replicas(key),
		onCommit: onCommit,
	}
	c.writes[id] = op
	for _, rep := range op.replicas {
		c.send(coord, rep, netsim.KindWriteReq, writeReq{reqID: id, v: v})
	}
	if c.params.HintedHandoff {
		c.scheduleWriteTimeout(id)
	}
}

// Get issues a client read from a uniformly random coordinator (clients
// contact any node in the cluster; Section 2.2 / Figure 1).
func (c *Cluster) Get(key string, onDone func(ReadResult)) {
	coord := c.r.Intn(c.params.Nodes)
	c.GetFrom(coord, key, onDone)
}

// GetFrom issues a read via an explicit coordinator node.
func (c *Cluster) GetFrom(coord int, key string, onDone func(ReadResult)) {
	c.stats.Reads++
	c.nextReqID++
	id := c.nextReqID
	op := &readOp{
		key:       key,
		coord:     coord,
		started:   c.Sim.Now(),
		truthSeq:  c.NewestCommittedSeq(key, c.Sim.Now()),
		responses: make(map[int]kvstore.Version),
		needed:    c.params.R,
		replicas:  c.Replicas(key),
		onDone:    onDone,
	}
	op.best = kvstore.Version{Key: key} // Seq 0: initial state
	c.reads[id] = op
	for _, rep := range op.replicas {
		c.send(coord, rep, netsim.KindReadReq, readReq{reqID: id, key: key})
	}
	if c.params.ReadTimeout > 0 {
		c.Sim.Schedule(c.params.ReadTimeout, func() { c.expireRead(id) })
	}
}

// expireRead answers a read that could not gather R responses in time with
// whatever it has, marking the result as timed out. Fully-answered reads
// are unaffected.
func (c *Cluster) expireRead(id uint64) {
	op, ok := c.reads[id]
	if !ok || op.answered {
		return
	}
	op.answered = true
	op.returned = op.best
	c.stats.ReadTimeouts++
	if op.onDone != nil {
		op.onDone(ReadResult{
			Key:                op.key,
			Coordinator:        op.coord,
			StartedAt:          op.started,
			ReturnedAt:         c.Sim.Now(),
			Version:            op.returned,
			NewestCommittedSeq: op.truthSeq,
			TimedOut:           true,
		})
	}
	// Retire immediately: replicas that never respond (crashed,
	// partitioned) would otherwise pin the op forever.
	delete(c.reads, id)
}

// send wires the LocalCoordinator shortcut: messages between a coordinator
// and its own storage bypass the network when the option is enabled.
func (c *Cluster) send(from, to int, kind netsim.Kind, payload any) {
	if c.params.LocalCoordinator && from == to {
		// Deliver instantly but asynchronously to preserve event ordering.
		c.Sim.Schedule(0, func() {
			if !c.Net.IsDown(to) {
				c.dispatch(to, netsim.Message{From: from, To: to, Kind: kind, Payload: payload, SentAt: c.Sim.Now()})
			}
		})
		return
	}
	c.Net.Send(from, to, kind, payload)
}

// dispatch routes a delivered message to the protocol handler on node id.
func (c *Cluster) dispatch(id int, m netsim.Message) {
	switch m.Kind {
	case netsim.KindWriteReq:
		p := m.Payload.(writeReq)
		c.nodes[id].store.Apply(p.v, c.Sim.Now())
		c.send(id, m.From, netsim.KindWriteAck, writeAck{reqID: p.reqID, replica: id})
	case netsim.KindWriteAck:
		c.onWriteAck(m.Payload.(writeAck))
	case netsim.KindReadReq:
		p := m.Payload.(readReq)
		v, _ := c.nodes[id].store.Get(p.key)
		c.send(id, m.From, netsim.KindReadResp, readResp{reqID: p.reqID, replica: id, v: v})
	case netsim.KindReadResp:
		c.onReadResp(m.Payload.(readResp))
	case KindRepair:
		p := m.Payload.(writeReq)
		c.nodes[id].store.Apply(p.v, c.Sim.Now())
		// Repairs need no ack; they are best-effort background writes.
	case KindAntiEntropyReq:
		c.onAntiEntropyReq(id, m)
	case KindAntiEntropyResp:
		c.onAntiEntropyResp(id, m)
	case KindHint:
		p := m.Payload.(hintMsg)
		c.nodes[id].store.Apply(p.v, c.Sim.Now())
		c.send(id, m.From, KindHintAck, hintAck{target: id, seq: p.v.Seq, key: p.v.Key})
	case KindHintAck:
		c.onHintAck(id, m.Payload.(hintAck))
	default:
		panic(fmt.Sprintf("dynamo: unknown message kind %v", m.Kind))
	}
}

// onWriteAck advances a pending write: the W-th ack commits it, the final
// ack retires it (late acks past commit still count toward retirement).
func (c *Cluster) onWriteAck(a writeAck) {
	op, ok := c.writes[a.reqID]
	if !ok {
		return
	}
	if op.acks[a.replica] {
		return
	}
	op.acks[a.replica] = true
	if !op.done && len(op.acks) >= op.needed {
		op.done = true
		now := c.Sim.Now()
		key := op.version.Key
		c.commits[key] = append(c.commits[key], commitRecord{seq: op.version.Seq, committedAt: now})
		if op.onCommit != nil {
			op.onCommit(WriteResult{
				Key:         key,
				Seq:         op.version.Seq,
				Coordinator: op.coord,
				StartedAt:   op.started,
				CommittedAt: now,
			})
		}
	}
	if len(op.acks) == len(op.replicas) {
		delete(c.writes, a.reqID)
	}
}

// onReadResp advances a pending read; the R-th response answers the client,
// later responses feed the staleness detector and read repair.
func (c *Cluster) onReadResp(resp readResp) {
	op, ok := c.reads[resp.reqID]
	if !ok {
		return
	}
	if _, dup := op.responses[resp.replica]; dup {
		return
	}
	op.responses[resp.replica] = resp.v
	if resp.v.Seq > op.best.Seq {
		op.best = resp.v
	}

	if !op.answered && len(op.responses) >= op.needed {
		op.answered = true
		op.returned = op.best
		if op.onDone != nil {
			op.onDone(ReadResult{
				Key:                op.key,
				Coordinator:        op.coord,
				StartedAt:          op.started,
				ReturnedAt:         c.Sim.Now(),
				Version:            op.returned,
				NewestCommittedSeq: op.truthSeq,
			})
		}
	} else if op.answered && resp.v.Seq > op.returned.Seq {
		// Late response newer than what we returned: Section 4.3's
		// asynchronous staleness detector raises an alarm. It is a true
		// positive only when the newer version had committed before the
		// read began; in-flight or later-committed versions are the false
		// positives the paper describes.
		c.noteDetection(op)
	}

	if len(op.responses) == len(op.replicas) {
		c.finishRead(resp.reqID, op)
	}
}

// finishRead runs read repair (if enabled) once all responses are in, then
// retires the op.
func (c *Cluster) finishRead(reqID uint64, op *readOp) {
	if c.params.ReadRepair {
		for rep, v := range op.responses {
			if v.Seq < op.best.Seq {
				c.stats.RepairsSent++
				c.send(op.coord, rep, KindRepair, writeReq{v: op.best})
			}
		}
	}
	delete(c.reads, reqID)
}
